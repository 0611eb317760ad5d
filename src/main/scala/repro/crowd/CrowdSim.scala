package repro.crowd

import scala.collection.mutable
import scala.util.Random

/** Generative crowd simulator.
  *
  * Substitutes for the paper's CrowdFlower-collected datasets (§5.1) and
  * implements its large-scale simulation protocol: ground-truth label sets are
  * drawn from latent *label clusters* (co-occurrence structure, requirement R3)
  * and worker answers are produced by a mix of worker types (requirement R1)
  * with per-type omission/commission behaviour. Everything is deterministic in
  * the seed.
  */
object CrowdSim {

  /** Per-type answering behaviour.
    *
    * @param recall      probability a true label is included in the answer
    * @param commission  expected number of wrong labels added per answer
    * @param inCluster   probability a wrong label is drawn from the item's
    *                    truth cluster (a plausible confusion) rather than
    *                    uniformly from the vocabulary
    * @param gullible    multiplier on the shared per-item distractor strength
    *                    (systematically-wrong labels that fool many workers)
    */
  final case class Behaviour(recall: Double, commission: Double, inCluster: Double,
      gullible: Double)

  /** Fractions of each worker type in the population; must sum to 1. */
  final case class WorkerMix(
      reliable: Double,
      normal: Double,
      sloppy: Double,
      uniformSpammer: Double,
      randomSpammer: Double) {
    require(math.abs(reliable + normal + sloppy + uniformSpammer + randomSpammer - 1.0) < 1e-9,
      "worker mix must sum to 1")
  }

  object WorkerMix {
    /** Population shaped after the paper's Appendix A report (27% reliable,
      * 16% normal, 18% sloppy, 38% spammers), with the spam share reduced to
      * ~22% of *answers* to reflect that platforms throttle obvious spammers
      * — calibrated so plain majority voting lands in the paper's observed
      * 0.52–0.65 precision band.
      */
    val realistic: WorkerMix = WorkerMix(0.33, 0.25, 0.20, 0.11, 0.11)

    /** Default mix of the paper's own large-scale simulation (§5.1):
      * 43% reliable, 32% sloppy, 25% spammers (split evenly).
      */
    val simulation: WorkerMix = WorkerMix(0.43, 0.0, 0.32, 0.125, 0.125)
  }

  /** Full simulation configuration.
    *
    * @param nItems         number of items
    * @param nLabels        vocabulary size C
    * @param nWorkers       worker pool size U
    * @param nAnswers       total answers to generate (sparse matrix density)
    * @param nClusters      number of latent truth clusters (label co-occurrence)
    * @param labelsPerItem  mean true-label-set size
    * @param maxLabels      hard cap on true-label-set size
    * @param corr           probability a true label is drawn from the item's
    *                       cluster core (1.0 = perfectly clustered labels,
    *                       0.0 = independent labels)
    * @param difficulty     1.0 = simple; scales omission/commission error rates
    * @param mix            worker-type population mix
    * @param skewedWorkers  if true, answer volume per worker is Zipf-skewed
    * @param pHard          probability a true (item, label) pair is "hard":
    *                       most workers miss it (correlated omissions — the
    *                       reason real crowd recall plateaus well below 1)
    * @param hardMult       recall multiplier on hard pairs
    * @param nDistractors   per item: number of shared distractor labels that
    *                       plausibly (but wrongly) describe the item
    *                       (correlated commissions)
    * @param temptLo/Hi     per-(item, distractor) acceptance strength range —
    *                       the probability an honest worker is fooled
    * @param expertProb     probability a worker is an expert for a given truth
    *                       cluster (requirement R2: per-domain competence)
    * @param nonExpertMult  recall multiplier outside the worker's expertise
    */
  final case class Config(
      nItems: Int,
      nLabels: Int,
      nWorkers: Int,
      nAnswers: Int,
      nClusters: Int,
      labelsPerItem: Double,
      maxLabels: Int,
      corr: Double,
      difficulty: Double = 1.0,
      mix: WorkerMix = WorkerMix.realistic,
      skewedWorkers: Boolean = false,
      coreSize: Int = 8,
      pHard: Double = 0.30,
      hardMult: Double = 0.20,
      nDistractors: Int = 2,
      temptLo: Double = 0.15,
      temptHi: Double = 0.60,
      expertProb: Double = 0.5,
      nonExpertMult: Double = 0.70)

  private def behaviour(t: WorkerType, difficulty: Double): Behaviour = {
    val d = difficulty
    t match {
      case WorkerType.Reliable       => Behaviour(math.max(0.6, 0.92 - 0.05 * (d - 1)), 0.15 * d, 0.7, 0.4)
      case WorkerType.Normal         => Behaviour(math.max(0.5, 0.82 - 0.08 * (d - 1)), 0.50 * d, 0.7, 1.0)
      case WorkerType.Sloppy         => Behaviour(math.max(0.3, 0.60 - 0.10 * (d - 1)), 1.20 * d, 0.5, 1.4)
      case WorkerType.UniformSpammer => Behaviour(0.0, 0.0, 0.0, 0.0) // answers a fixed set
      case WorkerType.RandomSpammer  => Behaviour(0.0, 0.0, 0.0, 0.0) // answers a random set
    }
  }

  private def samplePoisson(mean: Double, rng: Random): Int = {
    if (mean <= 0) return 0
    val l = math.exp(-mean)
    var k = 0
    var p = 1.0
    while ({ p *= rng.nextDouble(); p > l }) k += 1
    k
  }

  /** Draw worker types according to the mix, deterministically in the seed. */
  def drawWorkerTypes(n: Int, mix: WorkerMix, rng: Random): Array[WorkerType] = {
    val cdf = Array(
      mix.reliable,
      mix.reliable + mix.normal,
      mix.reliable + mix.normal + mix.sloppy,
      mix.reliable + mix.normal + mix.sloppy + mix.uniformSpammer)
    Array.fill(n) {
      val r = rng.nextDouble()
      if (r < cdf(0)) WorkerType.Reliable
      else if (r < cdf(1)) WorkerType.Normal
      else if (r < cdf(2)) WorkerType.Sloppy
      else if (r < cdf(3)) WorkerType.UniformSpammer
      else WorkerType.RandomSpammer
    }
  }

  /** Generate a full dataset from a configuration. */
  def generate(name: String, cfg: Config, seed: Long): CrowdDataset = {
    val rng = new Random(seed)
    import cfg._

    // --- Latent truth clusters: each has a "core" of correlated labels. ---
    val cores: Array[Array[Int]] = Array.tabulate(nClusters) { _ =>
      val sz = math.min(nLabels, math.max(2, coreSize + rng.nextInt(3) - 1))
      rng.shuffle((0 until nLabels).toList).take(sz).toArray
    }

    // --- Ground truth: item -> cluster -> label set. ---
    val itemCluster = Array.fill(nItems)(rng.nextInt(nClusters))
    val truth: Array[Array[Int]] = Array.tabulate(nItems) { i =>
      val core = cores(itemCluster(i))
      val k = math.min(maxLabels, math.max(1, samplePoisson(labelsPerItem, rng)))
      val s = mutable.SortedSet.empty[Int]
      var guard = 0
      while (s.size < k && guard < 50 * k) {
        val lab =
          if (rng.nextDouble() < corr) core(rng.nextInt(core.length))
          else rng.nextInt(nLabels)
        s += lab
        guard += 1
      }
      s.toArray
    }

    // --- Correlated noise structure shared across workers. ---
    // Hard true pairs: most workers will miss these (correlated omissions).
    val hardness: Array[Array[Boolean]] =
      truth.map(_.map(_ => rng.nextDouble() < pHard))
    // Per-item distractors: labels that plausibly-but-wrongly describe the
    // item, each with a shared acceptance strength (correlated commissions).
    val distractors: Array[Array[(Int, Double)]] = Array.tabulate(nItems) { i =>
      val t = truth(i).toSet
      val core = cores(itemCluster(i))
      Array.fill(nDistractors) {
        // Mostly off-cluster: label correlation can then disambiguate them.
        var lab = if (rng.nextDouble() < 0.3 && core.nonEmpty) core(rng.nextInt(core.length))
                  else rng.nextInt(nLabels)
        var g = 0
        while (t.contains(lab) && g < 10) { lab = rng.nextInt(nLabels); g += 1 }
        (lab, temptLo + rng.nextDouble() * (temptHi - temptLo))
      }.filter { case (lab, _) => !t.contains(lab) }
    }

    // --- Workers: types + (for uniform spammers) a fixed pet label set. ---
    val types = drawWorkerTypes(nWorkers, mix, rng)
    // Per-worker domain expertise (R2): recall drops outside expert clusters.
    val expert: Array[Array[Boolean]] =
      Array.fill(nWorkers, nClusters)(rng.nextDouble() < expertProb)
    val petSet: Array[Array[Int]] = Array.tabulate(nWorkers) { u =>
      if (types(u) == WorkerType.UniformSpammer) {
        val k = 1 + rng.nextInt(2)
        rng.shuffle((0 until nLabels).toList).take(k).sorted.toArray
      } else Array.emptyIntArray
    }

    // --- Worker sampling weights (Zipf-skewed or uniform answer volume). ---
    val weights = Array.tabulate(nWorkers) { u =>
      if (skewedWorkers) 1.0 / math.pow((u + 1).toDouble, 0.8) else 1.0
    }
    val wCdf = weights.scanLeft(0.0)(_ + _).drop(1)
    val wTotal = wCdf.last
    def drawWorker(): Int = {
      val r = rng.nextDouble() * wTotal
      val idx = java.util.Arrays.binarySearch(wCdf, r)
      val k = if (idx >= 0) idx else -idx - 1
      math.min(k, nWorkers - 1)
    }

    // --- Answers: round-robin items so each gets ~nAnswers/nItems workers;
    // a worker answers a given item at most once. ---
    val answered = Array.fill(nItems)(mutable.Set.empty[Int])
    val answers = Vector.newBuilder[Answer]
    var produced = 0
    var attempts = 0
    val maxAttempts = nAnswers * 10 + nItems
    var i = 0
    while (produced < nAnswers && attempts < maxAttempts) {
      attempts += 1
      val item = i % nItems
      i += 1
      var u = drawWorker()
      var tries = 0
      while (answered(item).contains(u) && tries < 20) { u = drawWorker(); tries += 1 }
      if (!answered(item).contains(u)) {
        answered(item) += u
        val a = answerFor(truth(item), hardness(item), distractors(item),
          expert(u)(itemCluster(item)), cores(itemCluster(item)), types(u),
          petSet(u), cfg, rng)
        if (a.nonEmpty) {
          answers += Answer(item, u, a)
          produced += 1
        }
      }
    }

    CrowdDataset(name, nItems, nLabels, nWorkers, truth, answers.result(), types)
  }

  /** One worker's answer for one item (possibly empty => caller drops it). */
  private[crowd] def answerFor(
      truth: Array[Int],
      hard: Array[Boolean],
      distractors: Array[(Int, Double)],
      isExpert: Boolean,
      core: Array[Int],
      t: WorkerType,
      pet: Array[Int],
      cfg: Config,
      rng: Random): Array[Int] = t match {
    case WorkerType.UniformSpammer => pet
    case WorkerType.RandomSpammer =>
      val k = math.max(1, samplePoisson(cfg.labelsPerItem, rng))
      val s = mutable.SortedSet.empty[Int]
      var g = 0
      while (s.size < math.min(k, cfg.nLabels) && g < 20 * k) { s += rng.nextInt(cfg.nLabels); g += 1 }
      s.toArray
    case other =>
      val b = behaviour(other, cfg.difficulty)
      val s = mutable.SortedSet.empty[Int]
      val expertMult = if (isExpert) 1.0 else cfg.nonExpertMult
      var j = 0
      while (j < truth.length) {
        val hardMult = if (hard(j)) cfg.hardMult else 1.0
        if (rng.nextDouble() < b.recall * expertMult * hardMult) s += truth(j)
        j += 1
      }
      // Shared distractors: correlated commissions that fool many workers.
      distractors.foreach { case (lab, strength) =>
        if (rng.nextDouble() < math.min(0.95, strength * b.gullible)) s += lab
      }
      val nWrong = samplePoisson(b.commission, rng)
      var w = 0
      while (w < nWrong) {
        val lab =
          if (rng.nextDouble() < b.inCluster && core.nonEmpty) core(rng.nextInt(core.length))
          else rng.nextInt(cfg.nLabels)
        s += lab
        w += 1
      }
      // A worker always submits something: fall back to one plausible label.
      if (s.isEmpty) s += (if (truth.nonEmpty && rng.nextDouble() < b.recall + 0.3) truth(rng.nextInt(truth.length)) else rng.nextInt(cfg.nLabels))
      s.toArray
  }

  /** Inject spammer answers so that spam makes up `ratio` of all answers
    * (the paper's Fig. 4 protocol). New spammer workers are appended to the
    * worker pool; existing answers are untouched.
    */
  def addSpammers(ds: CrowdDataset, ratio: Double, seed: Long): CrowdDataset = {
    require(ratio >= 0 && ratio < 1, "spam ratio in [0,1)")
    if (ratio == 0) return ds
    val rng = new Random(seed)
    val nSpam = math.round(ds.nAnswers * ratio / (1 - ratio)).toInt
    val nNewWorkers = math.max(1, ds.nWorkers / 5)
    val newTypes = Array.tabulate(nNewWorkers) { k =>
      if (k % 2 == 0) WorkerType.RandomSpammer else WorkerType.UniformSpammer
    }
    val pets = Array.tabulate(nNewWorkers) { k =>
      if (newTypes(k) == WorkerType.UniformSpammer)
        rng.shuffle((0 until ds.nLabels).toList).take(1 + rng.nextInt(2)).sorted.toArray
      else Array.emptyIntArray
    }
    val meanLabels = math.max(1.0, ds.truth.map(_.length).sum.toDouble / ds.nItems)
    val extra = Vector.newBuilder[Answer]
    var k = 0
    while (k < nSpam) {
      val w = rng.nextInt(nNewWorkers)
      val item = rng.nextInt(ds.nItems)
      val labels = newTypes(w) match {
        case WorkerType.UniformSpammer => pets(w)
        case _ =>
          val sz = math.max(1, samplePoisson(meanLabels, rng))
          val s = mutable.SortedSet.empty[Int]
          var g = 0
          while (s.size < math.min(sz, ds.nLabels) && g < 20 * sz) { s += rng.nextInt(ds.nLabels); g += 1 }
          s.toArray
      }
      if (labels.nonEmpty) {
        extra += Answer(item, ds.nWorkers + w, labels)
        k += 1
      }
    }
    ds.copy(
      nWorkers = ds.nWorkers + nNewWorkers,
      answers = ds.answers ++ extra.result(),
      workerTypes = ds.workerTypes ++ newTypes)
  }
}

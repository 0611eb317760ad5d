package repro.core

import repro.crowd.Answer

import scala.collection.mutable

/** Algorithm 2 — stochastic variational inference for the CPA model
  * (online / incremental learning, §4.1).
  *
  * Answers arrive as batches; each batch triggers one natural-gradient step
  * on the global parameters with learning rate ω_b = (1+b)^{-r} (Eq 18-20).
  * Per the paper, only the most recent parameter values are kept — the model
  * is never re-inferred from the full answer set, which is what makes the
  * accumulated runtime O(T1/B + T2) per batch instead of O(T1 + T2) per
  * epoch (§4.3).
  *
  * Deviations from the paper's formulation (documented in DESIGN.md §2):
  * the natural-gradient step for a conjugate-exponential global G with prior
  * G0 and batch sufficient statistic S_b is applied in its standard
  * equivalent form G ← (1−ω_b)·G + ω_b·(G0 + scale·S_b) (Hoffman et al.,
  * 2013, eq. 2.6) — identical to Eq 18-19 with the U/U_b scaling; the
  * unknown corpus size is estimated by the answers seen so far. Batch VI
  * ([[CpaVi]]) is the ω = 1, scale = 1 case of the same step; both run it
  * through [[CpaCore.updateGlobals]]. The item responsibilities ϕ are mixed
  * in mean parameterisation rather than the canonical µ parameterisation of
  * Eq 15-17 (same fixed points, simpler state).
  */
final class CpaSvi(
    val cfg: CpaConfig,
    val nItems: Int,
    val nWorkers: Int,
    val nLabels: Int) {

  private val g = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
  val T: Int = g.T
  val M: Int = g.M

  // No answers have arrived yet: ϕ starts near-uniform.
  private val (phi, kappa) = CpaCore.initLocals(cfg, g, nItems, nWorkers) {
    val rng = new scala.util.Random(cfg.seed)
    Array.fill(nItems)(repro.util.MathFn.normalise(Array.fill(T)(1.0 + 0.05 * rng.nextDouble())))
  }

  // Per-item cumulative vote state (drives candidates and the truth layer).
  private val voteCount = mutable.LongMap.empty[Int]
  private val yhatMap = mutable.LongMap.empty[Double]
  // Cumulative truth-layer statistics for online prediction: per-item answer
  // counts (nAns) and vote log-likelihood ratios (llr).
  private val truth = CpaCore.emptyStats(1, 1, 1, nItems)

  private val sensMc = Array.fill(M * nLabels)(0.65)
  private val fpMc = Array.fill(M * nLabels)(0.08)

  private var batchIndex = 0
  private var answersSeen = 0L
  private var labelMassSeen = 0L

  /** Batches processed so far. */
  def batchesProcessed: Int = batchIndex

  private def meanAnswerSize: Double =
    if (answersSeen == 0) 1.0 else labelMassSeen.toDouble / answersSeen

  private def candOf(i: Int): Array[Int] = {
    val b = mutable.ArrayBuilder.make[Int]
    var c = 0
    while (c < nLabels) {
      if (voteCount.contains(i.toLong * nLabels + c)) b += c
      c += 1
    }
    b.result()
  }

  private def yhatOf(i: Int, cand: Array[Int]): Array[Double] =
    cand.map(c => yhatMap.getOrElse(i.toLong * nLabels + c, 0.0))

  /** Consume one batch of answers and perform a single SVI step. */
  def processBatch(batch: Seq[Answer]): Unit = {
    if (batch.isEmpty) return
    batchIndex += 1
    val omega = math.pow(1.0 + batchIndex, -cfg.forgetRate)

    // --- Register votes; initialise new candidates from sharpened shares. ---
    batch.foreach { a =>
      truth.nAns(a.item) += 1.0
      answersSeen += 1
      labelMassSeen += a.labels.length
      a.labels.foreach { c =>
        val k = a.item.toLong * nLabels + c
        voteCount.update(k, voteCount.getOrElse(k, 0) + 1)
      }
    }
    val batchItems = batch.map(_.item).distinct.toArray
    val batchWorkers = batch.map(_.worker).distinct.toArray
    batchItems.foreach { i =>
      val base = i.toLong * nLabels
      candOf(i).foreach { c =>
        val share = voteCount(base + c).toDouble / math.max(1.0, truth.nAns(i))
        val sharp = 1.0 / (1.0 + math.exp(-8.0 * (share - 0.5)))
        if (!yhatMap.contains(base + c)) yhatMap.update(base + c, sharp)
      }
    }
    val candArr: Map[Int, Array[Int]] = batchItems.map(i => i -> candOf(i)).toMap
    val yhatArr: Map[Int, Array[Double]] = batchItems.map(i => i -> yhatOf(i, candArr(i))).toMap

    // --- Derived expectations from the current globals. ---
    val clusterMass = new Array[Double](T)
    var i = 0
    while (i < nItems) {
      if (truth.nAns(i) > 0) {
        var t = 0
        while (t < T) { clusterMass(t) += phi(i)(t); t += 1 }
      }
      i += 1
    }
    val ySize = new Array[Double](nItems)
    yhatMap.foreach { case (k, v) => ySize((k / nLabels).toInt) += v }
    val d = CpaCore.derive(g, clusterMass, phi, ySize, meanAnswerSize)

    // --- Local update: κ for the batch workers (Eq 2 on batch data). ---
    val byWorker = batch.groupBy(_.worker)
    if (!cfg.noZ) batchWorkers.foreach { u =>
      kappa(u) = CpaCore.kappaRow(byWorker(u), phi, d)
    }

    // --- Batch sufficient statistics. ---
    val st = CpaCore.emptyStats(T, M, nLabels, nItems)
    batch.foreach { a =>
      CpaCore.accumulate(st, a, kappa(a.worker), phi(a.item), d,
        candArr(a.item), yhatArr(a.item), sensMc, fpMc)
    }

    // --- Natural-gradient global updates (Eq 18-19), corpus size estimated
    // by the answers, items and workers seen so far. ---
    val itemsSeen = truth.nAns.count(_ > 0)
    CpaCore.updateGlobals(g, cfg, omega,
      st.lamStat, math.max(1.0, answersSeen.toDouble / batch.size),
      batchWorkers, kappa, math.max(1.0, nWorkers.toDouble / batchWorkers.length),
      batchItems, phi, candArr, yhatArr, math.max(1.0, itemsSeen.toDouble / batchItems.length))

    // --- ϕ and ŷ for batch items (mean-parameter mixing, Eq 15-17). ---
    // Merge batch vote statistics into the cumulative truth-layer state first.
    st.llr.foreach { case (k, v) => truth.llr.update(k, truth.llr.getOrElse(k, 0.0) + v) }
    if (!cfg.noL) batchItems.foreach { it =>
      CpaCore.blend(phi(it), CpaCore.phiRow(it, st.aIt, candArr(it), yhatArr(it), d), omega)
    }
    batchItems.foreach { it =>
      val cd = candArr(it)
      val s = CpaCore.inclusionScores(it, cd, phi(it), d, truth)
      var j = 0
      while (j < cd.length) {
        val key = it.toLong * nLabels + cd(j)
        val old = yhatMap.getOrElse(key, 0.0)
        yhatMap.update(key, 0.5 * old + 0.5 * s(j))
        j += 1
      }
    }

    // --- Community coin re-estimation (blended). ---
    val (sens, fp) = CpaCore.communityCoins(st, meanAnswerSize)
    CpaCore.blend(sensMc, sens, omega)
    CpaCore.blend(fpMc, fp, omega)
  }

  /** Snapshot the current state as a [[CpaModel]] for (online) prediction.
    * The truth statistics are copied, so later batches leave the snapshot as is.
    */
  def toModel: CpaModel = {
    val cand = Array.tabulate(nItems)(candOf)
    val yhat = Array.tabulate(nItems)(i => yhatOf(i, cand(i)))
    val ySize = Array.tabulate(nItems)(i => yhat(i).sum)
    val d = CpaCore.derive(g, CpaCore.colSums(phi), phi, ySize, meanAnswerSize)
    new CpaModel(cfg, nItems, nWorkers, nLabels, g, kappa, phi, cand, yhat, d,
      CpaCore.emptyStats(1, 1, 1, nItems).merge(truth), sensMc, fpMc, batchIndex)
  }
}

object CpaSvi {
  /** Convenience: run SVI over a full answer set split into batches of
    * `cfg.batchFraction` of the data (shuffled deterministically by `seed`).
    */
  def fit(answers: Seq[Answer], nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(), seed: Long = 7L): CpaModel = {
    val svi = new CpaSvi(cfg, nItems, nWorkers, nLabels)
    val shuffled = new scala.util.Random(seed).shuffle(answers.toVector)
    val batchSize = math.max(1, (answers.size * cfg.batchFraction).toInt)
    shuffled.grouped(batchSize).foreach(svi.processBatch)
    svi.toModel
  }
}

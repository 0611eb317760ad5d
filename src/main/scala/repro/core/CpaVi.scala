package repro.core

import repro.crowd.Answer

/** Result of CPA inference: converged variational state plus the truth
  * layer `lastStats` (after the last global update) that instantiates label
  * sets (§3.4).
  */
final class CpaModel(
    val cfg: CpaConfig,
    val nItems: Int,
    val nWorkers: Int,
    val nLabels: Int,
    val globals: CpaCore.Globals,
    val kappa: Array[Array[Double]],
    val phi: Array[Array[Double]],
    val cand: Array[Array[Int]],
    val yhat: Array[Array[Double]],
    val lastStats: CpaCore.TruthLayer,
    val sensMc: Array[Double],
    val fpMc: Array[Double],
    val iterations: Int) extends Serializable {

  /** Most likely worker community (argmax q(z_u)). */
  def communityOf(u: Int): Int = kappa(u).indexOf(kappa(u).max)

  /** Most likely item cluster (argmax q(l_i)). */
  def clusterOf(i: Int): Int = phi(i).indexOf(phi(i).max)

  /** Greedy MAP instantiation (§3.4) for one item.
    *
    * Candidate labels are the item's voted labels plus any label with a high
    * inclusion prior in a cluster the item plausibly belongs to (this is how
    * co-occurrence completion adds labels nobody voted for). The greedy set
    * construction adds labels in order of decreasing posterior inclusion
    * score while the joint objective increases — for the Bernoulli-product
    * form this is exactly "include while score > 0.5" (see DESIGN.md §2).
    */
  def predictItem(i: Int): Array[Int] = {
    val T = phi(i).length
    val extra = scala.collection.mutable.SortedSet.empty[Int]
    var t = 0
    while (t < T) {
      if (phi(i)(t) > 0.1) {
        val ph = lastStats.phiHat(t)
        var c = 0
        while (c < nLabels) {
          if (lastStats.nbar(t) * ph(c) > 0.3) extra += c
          c += 1
        }
      }
      t += 1
    }
    cand(i).foreach(extra += _)
    val labels = extra.toArray
    val s = CpaCore.inclusionScores(i, labels, cand(i), phi(i), lastStats)
    val order = labels.indices.sortBy(j => -s(j))
    val out = scala.collection.mutable.ArrayBuffer.empty[Int]
    var k = 0
    var done = false
    while (k < order.length && !done) {
      // Adding label j multiplies the Bernoulli-product objective by
      // s_j/(1−s_j); the greedy stops at the first non-improving label.
      if (s(order(k)) > 0.5) out += labels(order(k)) else done = true
      k += 1
    }
    out.sorted.toArray
  }

  /** Deterministic assignment d : items → 2^Z (Problem 1). */
  def predict(): Map[Int, Array[Int]] =
    (0 until nItems).map(i => i -> predictItem(i)).toMap
}

/** Algorithm 1 — offline coordinate-ascent variational inference for CPA,
  * extended with the latent-truth estimation layer (DESIGN.md §2). The data
  * passes are delegated to a [[CpaEngine]], so the same loop runs locally
  * ([[LocalEngine]]) or distributed ([[repro.spark.CpaSpark]]).
  */
object CpaVi {

  /** Fit CPA on a full answer matrix (driver-local engine). */
  def fit(answers: Seq[Answer], nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(),
      knownY: Map[Int, Array[Int]] = Map.empty): CpaModel =
    fitEngine(new LocalEngine(answers), answers, nItems, nWorkers, nLabels, cfg, knownY)

  /** Fit CPA with an explicit engine. `initAnswers` is only used for the
    * initialisation heuristics (informative ϕ init, initial ŷ); engines that
    * cannot cheaply materialise answers locally may pass a sample. Every
    * answer's item and worker ids must lie within [0, nItems) and
    * [0, nWorkers), and its labels must be strictly increasing within
    * [0, nLabels). `knownY` pins the soft truth ŷ of the given items to
    * their observed labels (Eq 7 with y); [[CpaModel.predictItem]] does not
    * read ŷ, so a known item's predicted set still comes from its votes.
    */
  def fitEngine(engine: CpaEngine, initAnswers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(),
      knownY: Map[Int, Array[Int]] = Map.empty): CpaModel = {
    require(cfg.maxIter >= 1, "at least one VI iteration is required")
    CpaCore.requireValidIds(initAnswers, nItems, nWorkers)
    CpaCore.requireValidLabels(initAnswers, nLabels)
    val g = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
    val T = g.T
    val M = g.M

    var (phi, kappa) = CpaCore.initLocals(cfg, g, nItems, nWorkers)(
      CpaCore.initPhi(initAnswers, nItems, T, cfg.seed))

    val cand = engine.candidates(nItems)
    val yhat = CpaCore.initYhat(initAnswers, nItems, cand)
    // Observed true labels override the soft estimate permanently (Eq 7 with y).
    knownY.foreach { case (i, ys) =>
      val s = ys.toSet
      var j = 0
      while (j < cand(i).length) { yhat(i)(j) = if (s(cand(i)(j))) 1.0 else 0.0; j += 1 }
    }
    val meanAnswerSize = engine.meanAnswerSize

    // Community per-label two-coin rates; neutral-but-honest start makes
    // iteration 1 behave like plain (unweighted) voting, like the EM
    // baselines' init.
    var sensMc = Array.fill(M * nLabels)(0.65)
    var fpMc = Array.fill(M * nLabels)(0.08)

    // Batch VI is the ω = 1 step with unit scales over all workers and items.
    val allWorkers = Array.range(0, nWorkers)
    val allItems = Array.range(0, nItems)
    def updateGlobals(lamStat: Array[Double]): Unit =
      CpaCore.updateGlobals(g, cfg, 1.0, lamStat, 1.0, allWorkers, kappa, 1.0,
        allItems, phi, cand(_), yhat(_), 1.0)

    // --- Bootstrap the globals from the informative initialisation. ---
    // Without this, the first ϕ update sees only the stick prior E[ln τ_t]
    // (monotonically decreasing in t) and collapses all items into the first
    // few clusters before any data has spoken.
    updateGlobals(engine.bootstrapLambda(T, M, nLabels, kappa, phi))

    val nCandTotal = cand.iterator.map(_.length).sum
    val freeItems = allItems.filterNot(knownY.contains)
    var st: CpaCore.SuffStats = null
    var iter = 0
    var converged = false
    while (iter < cfg.maxIter && !converged) {
      // --- Derived expectations from current globals. ---
      val d = CpaCore.derive(g)

      // --- MAP phase 1: worker communities (Eq 2). ---
      if (!cfg.noZ) kappa = engine.computeKappa(kappa, phi, d)

      // --- MAP phase 2 + REDUCE: per-answer sufficient statistics. ---
      st = engine.computeStats(T, M, nLabels, nItems, kappa, phi, cand, yhat, d,
        sensMc, fpMc)
      // The truth layer at the ϕ and ŷ the statistics pass read.
      val truth = CpaCore.truthLayer(g, phi, yhat.map(_.sum), meanAnswerSize, st.llr, st.nAns)
      // Re-estimated community reliability for the next iteration's weighting.
      val coins = CpaCore.communityCoins(st, meanAnswerSize)
      sensMc = coins._1; fpMc = coins._2

      // --- Local update: item clusters (Eq 3 + answer term). ---
      var delta = 0.0
      if (!cfg.noL) {
        val newPhi = Array.tabulate(nItems)(i => CpaCore.phiRow(i, st.aIt, cand(i), yhat(i), d))
        var i = 0
        while (i < nItems) {
          var t = 0
          while (t < T) { delta += math.abs(newPhi(i)(t) - phi(i)(t)); t += 1 }
          i += 1
        }
        delta /= (nItems.toDouble * T)
        phi = newPhi
      } else {
        delta = Double.MaxValue // convergence then tracked via ŷ below
      }

      // --- Latent truth re-estimation (skipping observed items). ---
      val yDeltaMean = CpaCore.truthStep(freeItems, cand, yhat, phi, truth) / math.max(1, nCandTotal)
      if (cfg.noL) delta = yDeltaMean

      // --- Global updates (Eq 4-7). ---
      updateGlobals(st.lamStat)

      iter += 1
      // Converge only once both the clustering and the truth estimate settle.
      if (delta < cfg.tol && yDeltaMean < 10 * cfg.tol) converged = true
    }

    // Final truth layer for prediction (reflecting the last global update).
    val truth = CpaCore.truthLayer(g, phi, yhat.map(_.sum), meanAnswerSize, st.llr, st.nAns)

    new CpaModel(cfg, nItems, nWorkers, nLabels, g, kappa, phi, cand, yhat, truth,
      sensMc, fpMc, iter)
  }
}

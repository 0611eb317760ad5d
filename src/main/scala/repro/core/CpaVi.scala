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

  /** Fit CPA with an explicit engine. `initAnswers` is the engine's answer
    * set, read on the driver for the initialisation heuristics (informative
    * ϕ init, initial ŷ) and the per-item answer counts. Every answer's item
    * and worker ids must lie within [0, nItems) and [0, nWorkers), and its
    * labels must be strictly increasing within [0, nLabels). `knownY` pins
    * the soft truth ŷ of the given items to their observed labels (Eq 7 with
    * y); [[CpaModel.predictItem]] does not read ŷ, so a known item's
    * predicted set still comes from its votes.
    */
  def fitEngine(engine: CpaEngine, initAnswers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(),
      knownY: Map[Int, Array[Int]] = Map.empty): CpaModel = {
    require(cfg.maxIter >= 1, "at least one VI iteration is required")
    CpaCore.requireValidIds(initAnswers, nItems, nWorkers)
    CpaCore.requireValidLabels(initAnswers, nLabels)
    val cand = engine.candidates(nItems)
    val yhat = CpaCore.initYhat(initAnswers, nItems, cand)
    // Observed true labels override the soft estimate permanently (Eq 7 with y).
    knownY.foreach { case (i, ys) => yhat(i) = cand(i).map(c => if (ys.contains(c)) 1.0 else 0.0) }
    val s = new CpaState(cfg, nItems, nWorkers, nLabels, cand, yhat,
      CpaCore.answerCounts(initAnswers, nItems))(CpaCore.initPhi(initAnswers, nItems, _, cfg.seed))
    val meanAnswerSize = engine.meanAnswerSize

    // Batch VI is the ω = 1 step with unit scales over all workers and items.
    val allWorkers = Array.range(0, nWorkers)
    val allItems = Array.range(0, nItems)

    // --- Bootstrap the globals from the informative initialisation. ---
    // Without this, the first ϕ update sees only the stick prior E[ln τ_t]
    // (monotonically decreasing in t) and collapses all items into the first
    // few clusters before any data has spoken.
    CpaCore.updateGlobals(s.g, cfg, 1.0, engine.bootstrapLambda(s.g.T, s.g.M, nLabels, s.kappa, s.phi),
      1.0, allWorkers, s.kappa, 1.0, allItems, s.phi, cand(_), yhat(_), 1.0)

    val nCandTotal = cand.iterator.map(_.length).sum
    val freeItems = allItems.filterNot(knownY.contains) // observed items keep their ŷ
    var iter = 0
    var converged = false
    while (iter < cfg.maxIter && !converged) {
      // The truth layer reads this pass's vote rows.
      val (dPhi, dY) = s.step(engine, 1.0, meanAnswerSize, allItems, freeItems, allWorkers,
        1.0, 1.0, 1.0)(_.llr)
      iter += 1
      // Converge only once both the clustering and the truth estimate settle;
      // under noL ϕ never moves and ŷ alone decides.
      val yMove = dY / math.max(1, nCandTotal)
      val phiMove = if (cfg.noL) yMove else dPhi / (nItems.toDouble * s.g.T)
      converged = phiMove < cfg.tol && yMove < 10 * cfg.tol
    }
    s.toModel(iter, meanAnswerSize)
  }
}

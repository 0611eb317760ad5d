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
    val known: Array[Array[Int]],
    val lastStats: CpaCore.TruthLayer,
    val sensMc: Array[Double],
    val fpMc: Array[Double],
    val iterations: Int) extends Serializable {

  /** Most likely worker community (argmax q(z_u)). */
  def communityOf(u: Int): Int = kappa(u).indexOf(kappa(u).max)

  /** Most likely item cluster (argmax q(l_i)). */
  def clusterOf(i: Int): Int = phi(i).indexOf(phi(i).max)

  /** Greedy MAP instantiation (§3.4) for one item; an item whose labels
    * are known (`known(i)`, pinned by `knownY`) predicts them.
    *
    * Candidate labels are the item's voted labels plus any label with a high
    * inclusion prior in a cluster the item plausibly belongs to (this is how
    * co-occurrence completion adds labels nobody voted for). The greedy set
    * construction adds labels in order of decreasing posterior inclusion
    * score while the joint objective increases — for the Bernoulli-product
    * form this is exactly "include while score > 0.5" (see DESIGN.md §2).
    */
  def predictItem(i: Int): Array[Int] = if (known(i) != null) known(i).clone() else {
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

  /** Fit CPA on a full answer matrix with the driver-local engine: its
    * [[LocalEngine.Slices]] contiguous slices fold on the thread pool.
    */
  def fit(answers: Seq[Answer], nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(),
      knownY: Map[Int, Array[Int]] = Map.empty): CpaModel =
    fitEngine(new LocalEngine(answers), answers, nItems, nWorkers, nLabels, cfg, knownY)

  /** Fit CPA with an explicit engine. `initAnswers` is the engine's answer
    * set (`engine.nAnswers` answers), registered once on the driver into an
    * empty [[CpaState]] ([[CpaState.register]], which rejects an answer
    * whose ids lie outside [0, nItems) and [0, nWorkers) or whose labels are
    * not strictly increasing within [0, nLabels), before any engine pass): it
    * gives the candidate rows and vote counts behind the informative ϕ start
    * and the starting ŷ, the per-item answer counts and the mean answer
    * size. The engine's one candidates pass must give the registered rows.
    * `knownY` pins the soft truth ŷ of the given items to their observed
    * labels (Eq 7 with y) on their candidate slots, and the model predicts
    * those labels, voted or not ([[CpaState.pinTruth]]).
    */
  def fitEngine(engine: CpaEngine, initAnswers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(),
      knownY: Map[Int, Array[Int]] = Map.empty): CpaModel = {
    require(cfg.maxIter >= 1, "at least one VI iteration is required")
    require(engine.nAnswers == initAnswers.size,
      s"the engine holds ${engine.nAnswers} answers, initAnswers ${initAnswers.size}")
    val s = new CpaState(cfg, nItems, nWorkers, nLabels)
    s.register(initAnswers)
    val engineCand = engine.candidates(nItems)
    val differing = s.cand.indices.find(i => !java.util.Arrays.equals(engineCand(i), s.cand(i)))
    require(differing.isEmpty,
      s"the engine's candidate labels of item ${differing.getOrElse(-1)} differ from those of initAnswers")
    s.startPhi(fromVotes = true)
    // Observed true labels override the soft estimate permanently (Eq 7 with y).
    knownY.foreach { case (i, ys) => s.pinTruth(i, ys) }

    // Batch VI is the ω = 1 step over all workers and items (so unscaled).
    val allWorkers = Array.range(0, nWorkers)
    val allItems = Array.range(0, nItems)

    // --- Bootstrap the globals from the informative initialisation. ---
    // Without this, the first ϕ update sees only the stick prior E[ln τ_t]
    // (monotonically decreasing in t) and collapses all items into the first
    // few clusters before any data has spoken.
    s.globalStep(1.0, engine.bootstrapLambda(s.g.T, s.g.M, nLabels, s.kappa, s.phi),
      engine.nAnswers, allItems, allWorkers)

    val nCandTotal = s.cand.iterator.map(_.length).sum
    var iter = 0
    var converged = false
    while (iter < cfg.maxIter && !converged) {
      val (dPhi, dY) = s.step(engine, 1.0, allItems, allWorkers)
      iter += 1
      // Converge only once both the clustering and the truth estimate settle;
      // under noL ϕ never moves and ŷ alone decides.
      val yMove = dY / math.max(1, nCandTotal)
      val phiMove = if (cfg.noL) yMove else dPhi / (nItems.toDouble * s.g.T)
      converged = phiMove < cfg.tol && yMove < 10 * cfg.tol
    }
    s.toModel(iter)
  }
}

package repro.core

import repro.crowd.Answer

/** Algorithm 2 — stochastic variational inference for the CPA model
  * (online / incremental learning, §4.1).
  *
  * Answers arrive as batches; each is registered ([[CpaState.register]],
  * the one way answers enter a fit, which batch VI runs once over all
  * answers) and runs one
  * [[CpaState.step]], the step of a [[CpaVi]] iteration, over a
  * [[LocalEngine]] of the batch (its [[LocalEngine.Slices]] slices, as for
  * VI) with learning rate ω_b = (1+b)^{-r}
  * (Eq 18-20): κ, ϕ and ŷ of the batch first, then the natural-gradient
  * global step from those updated locals (the local-then-global order of
  * Hoffman et al., 2013, Alg. 1). A batch covers only part of the answers
  * seen, so the step adds its vote rows into the kept ones (cumulative over
  * batches) and scales its statistics up to the corpus. Per the paper, only
  * the most recent parameter values are kept — the model is never
  * re-inferred from the full answer set, which is what makes the
  * accumulated runtime O(T1/B + T2) per batch instead of O(T1 + T2) per
  * epoch (§4.3). Every per-item term of a batch's step is the batch's: the
  * pass keeps a_it and llr rows only for the batch's items, and n̄ comes
  * from the state's running sums, moved by the batch items alone.
  *
  * Deviations from the paper's formulation (documented in DESIGN.md §2):
  * the natural-gradient step for a conjugate-exponential global G with prior
  * G0 and batch sufficient statistic S_b is applied in its standard
  * equivalent form G ← (1−ω_b)·G + ω_b·(G0 + scale·S_b) (Hoffman et al.,
  * 2013, eq. 2.6) — identical to Eq 18-19 with the U/U_b scaling; the
  * unknown corpus size is estimated by the answers, items and workers seen
  * so far. Batch VI is the ω = 1, scale = 1 case of the same step. The item
  * responsibilities ϕ and the community coins are mixed in mean
  * parameterisation rather than the canonical µ parameterisation of
  * Eq 15-17 (same fixed points, simpler state).
  */
final class CpaSvi(
    val cfg: CpaConfig,
    val nItems: Int,
    val nWorkers: Int,
    val nLabels: Int) {

  // No answers have arrived yet: every item's rows start empty, ϕ near-uniform.
  private val state = new CpaState(cfg, nItems, nWorkers, nLabels)
  state.startPhi(fromVotes = false)

  private var batchIndex = 0

  /** Batches processed so far. */
  def batchesProcessed: Int = batchIndex

  /** Vote counts of item `i`, aligned with its candidate labels. */
  private[core] def votesOf(i: Int): Array[Int] = state.votesOf(i)

  /** Consume one batch of answers and perform a single SVI step. A batch
    * with an out-of-range id or an invalid label set is rejected by
    * [[CpaState.register]] before any state changes.
    */
  def processBatch(batch: Seq[Answer]): Unit = {
    if (batch.isEmpty) return
    val batchItems = state.register(batch)
    batchIndex += 1
    val omega = math.pow(1.0 + batchIndex, -cfg.forgetRate)
    state.step(new LocalEngine(batch), omega, batchItems, batch.map(_.worker).distinct.toArray)
    () // a stream has no convergence test: the step's residuals go unread
  }

  /** Snapshot the current state as a [[CpaModel]] for (online) prediction;
    * later batches leave the snapshot as is.
    */
  def toModel: CpaModel = state.toModel(batchIndex)
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

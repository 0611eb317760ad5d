package repro.core

import repro.crowd.Answer

import scala.reflect.ClassTag

/** Algorithm 2 — stochastic variational inference for the CPA model
  * (online / incremental learning, §4.1).
  *
  * Answers arrive as batches; each batch runs one [[CpaState.step]], the
  * step of a [[CpaVi]] iteration, over a [[LocalEngine]] of the batch with
  * learning rate ω_b = (1+b)^{-r} (Eq 18-20): κ, ϕ and ŷ of the batch first,
  * then the natural-gradient global step from those updated locals (the
  * local-then-global order of Hoffman et al., 2013, Alg. 1). Unlike VI, the
  * truth layer's vote statistics are cumulative over batches: the step reads
  * the llr rows after the batch's votes are merged in. Per the paper, only
  * the most recent parameter values are kept — the model is never
  * re-inferred from the full answer set, which is what makes the
  * accumulated runtime O(T1/B + T2) per batch instead of O(T1 + T2) per
  * epoch (§4.3).
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

  // Per-item candidate rows: cands(i) holds the labels voted for item i so
  // far, sorted and distinct; votes(i) (vote counts), yh(i) (soft truth ŷ)
  // and llr(i) (cumulative vote log-likelihood ratios, null until the item's
  // first answer) are aligned with it slot for slot. A newly voted label is
  // inserted into all four rows at its sorted position, so a batch reads and
  // writes only the rows of its own items. nAns counts each item's answers.
  private val cands = Array.fill(nItems)(Array.emptyIntArray)
  private val votes = Array.fill(nItems)(Array.emptyIntArray)
  private val yh = Array.fill(nItems)(Array.emptyDoubleArray)
  private val nAns = new Array[Double](nItems)

  // No answers have arrived yet: ϕ starts near-uniform.
  private val state = new CpaState(cfg, nItems, nWorkers, nLabels, cands, yh, nAns)({ T =>
    val rng = new scala.util.Random(cfg.seed)
    Array.fill(nItems)(repro.util.MathFn.normalise(Array.fill(T)(1.0 + 0.05 * rng.nextDouble())))
  })
  private val llr = state.llr

  private var batchIndex = 0
  private var answersSeen = 0L
  private var labelMassSeen = 0L
  private var itemsSeen = 0

  /** Batches processed so far. */
  def batchesProcessed: Int = batchIndex

  /** Vote counts of item `i`, aligned with its candidate labels. */
  private[core] def votesOf(i: Int): Array[Int] = votes(i).clone()

  private def meanAnswerSize: Double =
    if (answersSeen == 0) 1.0 else labelMassSeen.toDouble / answersSeen

  /** Slot of label `c` in item `i`'s candidate row. A new label is inserted
    * at its sorted position with no votes, llr 0 and ŷ NaN (set once the
    * batch's votes are counted).
    */
  private def slotOf(i: Int, c: Int): Int = {
    val k = java.util.Arrays.binarySearch(cands(i), c)
    if (k >= 0) k
    else {
      val j = -k - 1
      cands(i) = CpaSvi.inserted(cands(i), j, c)
      votes(i) = CpaSvi.inserted(votes(i), j, 0)
      yh(i) = CpaSvi.inserted(yh(i), j, Double.NaN)
      llr(i) = CpaSvi.inserted(llr(i), j, 0.0)
      j
    }
  }

  /** Consume one batch of answers and perform a single SVI step. A batch
    * with an out-of-range id or an invalid label set is rejected before any
    * state changes.
    */
  def processBatch(batch: Seq[Answer]): Unit = {
    if (batch.isEmpty) return
    CpaCore.requireValidIds(batch, nItems, nWorkers)
    CpaCore.requireValidLabels(batch, nLabels)
    batchIndex += 1
    val omega = math.pow(1.0 + batchIndex, -cfg.forgetRate)

    // --- Register votes; initialise new candidates from sharpened shares. ---
    batch.foreach { a =>
      val i = a.item
      if (nAns(i) == 0) { itemsSeen += 1; llr(i) = Array.emptyDoubleArray }
      nAns(i) += 1.0
      answersSeen += 1
      labelMassSeen += a.labels.length
      a.labels.foreach { c =>
        val j = slotOf(i, c) // may replace the row, so index it afterwards
        votes(i)(j) += 1
      }
    }
    val batchItems = batch.map(_.item).distinct.toArray
    val batchWorkers = batch.map(_.worker).distinct.toArray
    batchItems.foreach { i =>
      val y = yh(i)
      var j = 0
      while (j < y.length) {
        if (y(j).isNaN) y(j) = CpaCore.sharpenedShare(votes(i)(j), nAns(i))
        j += 1
      }
      state.ySize(i) = y.sum
    }

    // --- One step over the batch; the global statistics are scaled up to
    // the corpus size estimated by the answers, workers and items seen. ---
    state.step(new LocalEngine(batch), omega, meanAnswerSize, batchItems, batchItems, batchWorkers,
      math.max(1.0, answersSeen.toDouble / batch.size),
      math.max(1.0, nWorkers.toDouble / batchWorkers.length),
      math.max(1.0, itemsSeen.toDouble / batchItems.length)) { st =>
      batchItems.foreach(i => CpaCore.addInto(llr(i), st.llr(i)))
      llr
    }
  }

  /** Snapshot the current state as a [[CpaModel]] for (online) prediction;
    * later batches leave the snapshot as is.
    */
  def toModel: CpaModel = state.toModel(batchIndex, meanAnswerSize)
}

object CpaSvi {
  /** `row` with `x` inserted at index `j`. */
  private def inserted[A: ClassTag](row: Array[A], j: Int, x: A): Array[A] = {
    val out = new Array[A](row.length + 1)
    System.arraycopy(row, 0, out, 0, j)
    out(j) = x
    System.arraycopy(row, j, out, j + 1, row.length - j)
    out
  }

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

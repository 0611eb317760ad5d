package repro.core

import repro.crowd.Answer

import scala.reflect.ClassTag

/** The state of one CPA fit, the one way answers enter it ([[register]])
  * and the one step that updates it. Batch VI ([[CpaVi]], Algorithm 1)
  * starts from the engine's candidates `cand` (held, not copied: registering
  * grows its rows) with all `answers` registered
  * and runs [[step]] with ω = 1 over all items; SVI ([[CpaSvi]], Algorithm 2)
  * starts from empty rows, registers each batch and steps with ω_b over it.
  *
  * The starting locals follow the ablations: with `noL` every item is its own
  * cluster (ϕ_i one-hot at i), with `noZ` every worker its own community (κ_u
  * one-hot at u), and neither is ever updated. Otherwise ϕ is `initPhi(cand,
  * votes, T)` after `answers` are registered and κ is [[CpaCore.initKappa]].
  */
final class CpaState(cfg: CpaConfig, nItems: Int, nWorkers: Int, nLabels: Int,
    val cand: Array[Array[Int]], answers: Seq[Answer])(
    initPhi: (Array[Array[Int]], Array[Array[Int]], Int) => Array[Array[Double]]) {
  val g: CpaCore.Globals = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
  // Per-item rows aligned with `cand` slot for slot (ŷ is NaN until the
  // slot is registered), Σ_c ŷ_ic and the answer counts.
  private val votes = cand.map(r => new Array[Int](r.length))
  val yhat: Array[Array[Double]] = cand.map(r => Array.fill(r.length)(Double.NaN))
  private val ySize = new Array[Double](nItems)
  private[core] val nAns = new Array[Double](nItems)
  private val pinned = new Array[Boolean](nItems)
  /** The vote rows the truth layer reads; null for items without answers. */
  var llr: Array[Array[Double]] = new Array[Array[Double]](nItems)
  private var nAnswersSeen = 0L
  private var labelMassSeen = 0L
  private var nItemsSeen = 0
  register(answers)

  private def oneHot(n: Int, k: Int) = Array.tabulate(n)(i => Array.tabulate(k)(j => if (j == i) 1.0 else 0.0))
  val phi: Array[Array[Double]] = if (cfg.noL) oneHot(nItems, g.T) else initPhi(cand, votes, g.T)
  /** Replaced, never written in place, by each κ pass. */
  var kappa: Array[Array[Double]] = if (cfg.noZ) oneHot(nWorkers, g.M) else CpaCore.initKappa(nWorkers, g.M, cfg.seed)
  private val sensMc = Array.fill(g.M * nLabels)(CpaCore.SensStart)
  private val fpMc = Array.fill(g.M * nLabels)(CpaCore.FpStart)

  /** Answers, and items with answers, registered so far. */
  def answersSeen: Long = nAnswersSeen
  def itemsSeen: Int = nItemsSeen

  /** Mean labels per registered answer, 1 without answers (anchors n̄ and the fp floor). */
  def meanAnswerSize: Double = if (nAnswersSeen == 0) 1.0 else labelMassSeen.toDouble / nAnswersSeen

  /** Vote counts of item `i`, aligned with its candidate labels. */
  def votesOf(i: Int): Array[Int] = votes(i).clone()

  /** Register `answers`: count each item's answers and label votes, insert a
    * label new to an item into its rows at its sorted slot (no votes, llr 0),
    * and start every new ŷ slot at [[CpaCore.sharpenedShare]] of the item's
    * counts after all of `answers`. Returns the distinct items of `answers`,
    * in order of first appearance.
    */
  def register(answers: Seq[Answer]): Array[Int] = {
    answers.foreach { a =>
      val i = a.item
      if (nAns(i) == 0) { nItemsSeen += 1; llr(i) = new Array[Double](cand(i).length) }
      nAns(i) += 1.0
      nAnswersSeen += 1
      labelMassSeen += a.labels.length
      a.labels.foreach { c =>
        val j = slotOf(i, c) // may replace the rows, so index them afterwards
        votes(i)(j) += 1
      }
    }
    val items = answers.map(_.item).distinct.toArray
    items.foreach { i =>
      val y = yhat(i)
      var j = 0
      while (j < y.length) {
        if (y(j).isNaN) y(j) = CpaCore.sharpenedShare(votes(i)(j).toDouble, nAns(i))
        j += 1
      }
      ySize(i) = y.sum
    }
    items
  }

  /** Slot of label `c` in item `i`'s rows, inserted at its sorted position if new. */
  private def slotOf(i: Int, c: Int): Int = {
    val k = java.util.Arrays.binarySearch(cand(i), c)
    if (k >= 0) k
    else {
      val j = -k - 1
      cand(i) = CpaState.inserted(cand(i), j, c)
      votes(i) = CpaState.inserted(votes(i), j, 0)
      yhat(i) = CpaState.inserted(yhat(i), j, Double.NaN)
      llr(i) = CpaState.inserted(llr(i), j, 0.0)
      j
    }
  }

  /** Pin item `i`'s soft truth to the observed label set `labels` (Eq 7 with y). */
  def pinTruth(i: Int, labels: Array[Int]): Unit = {
    yhat(i) = cand(i).map(c => if (labels.contains(c)) 1.0 else 0.0)
    ySize(i) = yhat(i).sum
    pinned(i) = true
  }

  /** One CPA step with rate `omega`, in the order of Hoffman et al. (2013,
    * "Stochastic Variational Inference", Alg. 1), locals before globals:
    *  1. [[CpaCore.derive]] from the current globals;
    *  2. the engine's κ pass (Eq 2) and statistics pass;
    *  3. the truth layer over [[llr]]: the pass's vote rows if it covers every
    *     registered answer (VI), else its rows of `items` added into the kept ones;
    *  4. the community coins, blended with ω;
    *  5. ϕ of `items` (Eq 3 + answer term), blended with ω;
    *  6. the damped truth step on `items` not pinned by [[pinTruth]];
    *  7. [[globalStep]] from the updated κ of `workers` and ϕ, ŷ of `items`.
    * Returns (Σ |Δϕ|, Σ |Δŷ|) over the updated rows.
    */
  def step(engine: CpaEngine, omega: Double, items: Array[Int], workers: Array[Int]): (Double, Double) = {
    val d = CpaCore.derive(g)
    if (!cfg.noZ) kappa = engine.computeKappa(kappa, phi, d)
    val st = engine.computeStats(g.T, g.M, g.C, nItems, kappa, phi, cand, yhat, d, sensMc, fpMc)
    if (engine.nAnswers == answersSeen) llr = st.llr
    else items.foreach(i => CpaCore.addInto(llr(i), st.llr(i)))
    val truth = CpaCore.truthLayer(g, phi, ySize, meanAnswerSize, llr, nAns)
    val (sens, fp) = CpaCore.communityCoins(st, meanAnswerSize)
    CpaCore.blend(sensMc, sens, omega)
    CpaCore.blend(fpMc, fp, omega)
    var dPhi = 0.0
    if (!cfg.noL) items.foreach { i =>
      dPhi += CpaCore.blend(phi(i), CpaCore.phiRow(i, st.aIt, cand(i), yhat(i), d), omega)
    }
    val truthItems = items.filterNot(pinned(_))
    val dY = CpaCore.truthStep(truthItems, cand, yhat, phi, truth)
    truthItems.foreach(i => ySize(i) = yhat(i).sum)
    globalStep(omega, st.lamStat, engine.nAnswers, items, workers)
    (dPhi, dY)
  }

  /** [[CpaCore.updateGlobals]] from `lamStat` of a pass over `passAnswers`
    * answers, κ of `workers` and ϕ, ŷ of `items`, scaled up by answers seen /
    * `passAnswers`, workers / |`workers`| and items seen / |`items`|, each at
    * least 1: a pass over everything seen (batch VI) is unscaled.
    */
  def globalStep(omega: Double, lamStat: Array[Double], passAnswers: Long,
      items: Array[Int], workers: Array[Int]): Unit = {
    def scale(seen: Long, pass: Long) = math.max(1.0, seen.toDouble / math.max(1L, pass).toDouble)
    CpaCore.updateGlobals(g, cfg, omega, lamStat, scale(answersSeen, passAnswers), workers, kappa,
      scale(nWorkers.toLong, workers.length.toLong), items, phi, cand, yhat,
      scale(itemsSeen.toLong, items.length.toLong))
  }

  /** The model of the current state after `iterations` steps, its truth
    * layer over [[llr]]. Every array is copied (an unseen item's llr row
    * stays null), so later steps leave the model as is.
    */
  def toModel(iterations: Int): CpaModel = {
    def copy(rows: Array[Array[Double]]) = rows.map(r => if (r == null) null else r.clone())
    new CpaModel(cfg, nItems, nWorkers, nLabels, g.copyOf(), copy(kappa), copy(phi),
      cand.map(_.clone()), copy(yhat),
      CpaCore.truthLayer(g, phi, ySize, meanAnswerSize, copy(llr), nAns.clone()),
      sensMc.clone(), fpMc.clone(), iterations)
  }
}

object CpaState {
  /** `row` with `x` inserted at index `j`. */
  private def inserted[A: ClassTag](row: Array[A], j: Int, x: A): Array[A] = {
    val out = new Array[A](row.length + 1)
    System.arraycopy(row, 0, out, 0, j)
    out(j) = x
    System.arraycopy(row, j, out, j + 1, row.length - j)
    out
  }
}

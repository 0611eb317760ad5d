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
  *
  * The state keeps n̄'s sums per cluster, Σ_i ϕ_it·Σ_c ŷ_ic and Σ_i ϕ_it,
  * running, so an SVI step reads them without a pass over the corpus: a
  * write to the ϕ or ŷ of some items ([[register]], [[pinTruth]], a step over
  * a batch) takes those items' old contributions out of the sums and puts
  * their new ones in. A step over every item (VI) instead rescans the sums in
  * item order ([[CpaCore.nbarSums]]) before it reads them and after it
  * writes, and [[toModel]] builds its truth layer from a fresh scan, so VI's
  * n̄ keeps the bits of the scan; a stream's sums drift from it only in the
  * low bits.
  */
final class CpaState(cfg: CpaConfig, nItems: Int, nWorkers: Int, nLabels: Int,
    val cand: Array[Array[Int]], answers: Seq[Answer])(
    initPhi: (Array[Array[Int]], Array[Array[Int]], Int) => Array[Array[Double]]) {
  val g: CpaCore.Globals = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
  // Per-item rows aligned with `cand` slot for slot (ŷ is NaN until the
  // slot is registered), Σ_c ŷ_ic and the answer counts.
  private val votes = cand.map(r => new Array[Int](r.length))
  val yhat: Array[Array[Double]] = cand.map(r => CpaCore.filled(r.length, Double.NaN))
  private val ySize = new Array[Double](nItems)
  private[core] val nAns = new Array[Double](nItems)
  /** The known label set of each item pinned by [[pinTruth]], null for the others. */
  private val known = new Array[Array[Int]](nItems)
  /** The vote rows the truth layer reads; null for items without answers. */
  var llr: Array[Array[Double]] = new Array[Array[Double]](nItems)
  private var nAnswersSeen = 0L
  private var labelMassSeen = 0L
  private var nItemsSeen = 0
  countVotes(answers).foreach(startYhat)

  private def oneHot(n: Int, k: Int) = Array.tabulate(n) { i =>
    val row = new Array[Double](k)
    if (i < k) row(i) = 1.0
    row
  }
  val phi: Array[Array[Double]] = if (cfg.noL) oneHot(nItems, g.T) else initPhi(cand, votes, g.T)
  /** Replaced, never written in place, by each κ pass. */
  var kappa: Array[Array[Double]] = if (cfg.noZ) oneHot(nWorkers, g.M) else CpaCore.initKappa(nWorkers, g.M, cfg.seed)
  private val sensMc = CpaCore.filled(g.M * nLabels, CpaCore.SensStart)
  private val fpMc = CpaCore.filled(g.M * nLabels, CpaCore.FpStart)
  // n̄'s running sums (numerator, denominator), each T long.
  private var nbarNum, nbarDen: Array[Double] = _
  rescanNbarSums()

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
    * counts after all of `answers`; n̄'s running sums follow the items' new
    * Σ_c ŷ_ic. Returns the distinct items of `answers`, in order of first
    * appearance.
    */
  def register(answers: Seq[Answer]): Array[Int] = {
    val items = countVotes(answers)
    items.foreach { i => shiftNbarSums(i, -1.0); startYhat(i); shiftNbarSums(i, 1.0) }
    items
  }

  /** Count `answers` into the vote rows; returns their distinct items in
    * order of first appearance.
    */
  private def countVotes(answers: Seq[Answer]): Array[Int] = {
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
    answers.map(_.item).distinct.toArray
  }

  /** Start item `i`'s unset ŷ slots at the sharpened share of its counts. */
  private def startYhat(i: Int): Unit = {
    val y = yhat(i)
    var j = 0
    while (j < y.length) {
      if (y(j).isNaN) y(j) = CpaCore.sharpenedShare(votes(i)(j).toDouble, nAns(i))
      j += 1
    }
    ySize(i) = y.sum
  }

  /** n̄'s running sums, (Σ_i ϕ_it·Σ_c ŷ_ic, Σ_i ϕ_it) per cluster. */
  private[core] def nbarSums: (Array[Double], Array[Double]) = (nbarNum.clone(), nbarDen.clone())

  private def rescanNbarSums(): Unit = {
    val (num, den) = CpaCore.nbarSums(phi, ySize, g.T)
    nbarNum = num
    nbarDen = den
  }

  /** Add item `i`'s contribution to n̄'s sums times `sign`: −1 takes it out
    * before its ϕ or ŷ is written, +1 puts the new one in.
    */
  private def shiftNbarSums(i: Int, sign: Double): Unit = {
    val p = phi(i)
    val size = ySize(i)
    var t = 0
    while (t < g.T) { nbarNum(t) += sign * (p(t) * size); nbarDen(t) += sign * p(t); t += 1 }
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

  /** Pin item `i`'s soft truth to the observed label set `labels` (Eq 7 with
    * y): ŷ is 1 on the item's candidates in `labels` and 0 on the others, the
    * truth step leaves the item as is and its model predicts `labels`. A
    * known label no worker voted has no slot, so Eq 7 does not see it.
    */
  def pinTruth(i: Int, labels: Array[Int]): Unit = {
    val ys = labels.distinct.sorted
    require(ys.forall(c => c >= 0 && c < nLabels),
      s"known labels of item $i must lie in [0, $nLabels): ${labels.mkString(",")}")
    shiftNbarSums(i, -1.0)
    yhat(i) = cand(i).map(c => if (ys.contains(c)) 1.0 else 0.0)
    ySize(i) = yhat(i).sum
    shiftNbarSums(i, 1.0)
    known(i) = ys
  }

  /** One CPA step with rate `omega`, in the order of Hoffman et al. (2013,
    * "Stochastic Variational Inference", Alg. 1), locals before globals:
    *  1. [[CpaCore.derive]] from the current globals;
    *  2. the engine's κ pass (Eq 2) and statistics pass;
    *  3. the truth layer over [[llr]]: the pass's vote rows if it covers every
    *     registered answer (VI), else its rows of `items` added into the kept
    *     ones; n̄ from the running sums, rescanned first if `items` is every item;
    *  4. the community coins, blended with ω;
    *  5. ϕ of `items` (Eq 3 + answer term), blended with ω;
    *  6. the damped truth step on `items` not pinned by [[pinTruth]];
    *  7. [[globalStep]] from the updated κ of `workers` and ϕ, ŷ of `items`.
    * Steps 5 and 6 move n̄'s sums by the contributions of `items` (a rescan
    * if `items` is every item). Returns (Σ |Δϕ|, Σ |Δŷ|) over the updated rows.
    */
  def step(engine: CpaEngine, omega: Double, items: Array[Int], workers: Array[Int]): (Double, Double) = {
    val d = CpaCore.derive(g)
    if (!cfg.noZ) kappa = engine.computeKappa(kappa, phi, d)
    val st = engine.computeStats(g.T, g.M, g.C, nItems, kappa, phi, cand, yhat, d, sensMc, fpMc)
    if (engine.nAnswers == answersSeen) llr = st.llr
    else items.foreach(i => CpaCore.addInto(llr(i), st.llr(i)))
    val everyItem = items.length == nItems
    val truth = truthLayer(everyItem)
    val (sens, fp) = CpaCore.communityCoins(st, meanAnswerSize)
    CpaCore.blend(sensMc, sens, omega)
    CpaCore.blend(fpMc, fp, omega)
    if (!everyItem) items.foreach(shiftNbarSums(_, -1.0))
    var dPhi = 0.0
    if (!cfg.noL) items.foreach { i =>
      dPhi += CpaCore.blend(phi(i), CpaCore.phiRow(st.aIt(i), cand(i), yhat(i), d), omega)
    }
    val truthItems = items.filter(known(_) == null)
    val dY = CpaCore.truthStep(truthItems, cand, yhat, phi, truth)
    truthItems.foreach(i => ySize(i) = yhat(i).sum)
    if (everyItem) rescanNbarSums() else items.foreach(shiftNbarSums(_, 1.0))
    globalStep(omega, st.lamStat, engine.nAnswers, items, workers)
    (dPhi, dY)
  }

  /** The truth layer a step reads: over [[llr]], with n̄ from the running
    * sums, which a step over every item rescans first.
    */
  private[core] def truthLayer(everyItem: Boolean): CpaCore.TruthLayer = {
    if (everyItem) rescanNbarSums()
    CpaCore.truthLayer(g, nbarNum, nbarDen, meanAnswerSize, llr, nAns)
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
    * layer over [[llr]] with n̄ from a fresh scan (the running sums stay as
    * they are). Every array is copied (an unseen item's llr row stays null),
    * so later steps leave the model as is.
    */
  def toModel(iterations: Int): CpaModel = {
    def copy(rows: Array[Array[Double]]) = rows.map(r => if (r == null) null else r.clone())
    val (num, den) = CpaCore.nbarSums(phi, ySize, g.T)
    new CpaModel(cfg, nItems, nWorkers, nLabels, g.copyOf(), copy(kappa), copy(phi),
      cand.map(_.clone()), copy(yhat), known.clone(),
      CpaCore.truthLayer(g, num, den, meanAnswerSize, copy(llr), nAns.clone()),
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

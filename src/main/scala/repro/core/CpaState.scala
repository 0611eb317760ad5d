package repro.core

import repro.crowd.Answer
import repro.util.MathFn

/** The state of one CPA fit, the one way answers enter it ([[register]])
  * and the one step that updates it. Every fit starts from empty candidate
  * rows, which registering answers grows. Batch VI ([[CpaVi]], Algorithm 1)
  * registers all answers once, starts ϕ from their votes and runs [[step]]
  * with ω = 1 over all items; SVI ([[CpaSvi]], Algorithm 2) starts ϕ
  * near-uniform, registers each batch and steps with ω_b over it.
  *
  * The starting locals follow the ablations: with `noL` every item is its own
  * cluster (ϕ_i one-hot at i), with `noZ` every worker its own community (κ_u
  * one-hot at u), and neither is ever updated. Otherwise ϕ starts as
  * [[startPhi]] says and κ is [[CpaCore.initKappa]].
  *
  * The state keeps n̄'s sums per cluster, Σ_i ϕ_it·Σ_c ŷ_ic and Σ_i ϕ_it,
  * running, so no step reads the corpus for them: a write to the ϕ or ŷ of
  * some items ([[startPhi]], [[register]], [[pinTruth]], a step over a batch
  * or over every item) takes those items' old contributions out of the sums
  * and puts their new ones in. The sums drift from a fresh scan only in the
  * low bits.
  */
final class CpaState(cfg: CpaConfig, nItems: Int, nWorkers: Int, nLabels: Int) {
  val g: CpaCore.Globals = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
  // Per-item rows, grown by `register`: the sorted candidate labels and,
  // aligned with them slot for slot, the vote counts and ŷ (NaN until the
  // slot is registered); then Σ_c ŷ_ic and the answer counts.
  val cand: Array[Array[Int]] = Array.fill(nItems)(Array.emptyIntArray)
  private val votes: Array[Array[Int]] = Array.fill(nItems)(Array.emptyIntArray)
  val yhat: Array[Array[Double]] = Array.fill(nItems)(Array.emptyDoubleArray)
  private val ySize = new Array[Double](nItems)
  private[core] val nAns = new Array[Double](nItems)
  /** The known label set of each item pinned by [[pinTruth]], null for the others. */
  private val known = new Array[Array[Int]](nItems)
  /** The vote rows the truth layer reads; null for items without answers. */
  var llr: Array[Array[Double]] = new Array[Array[Double]](nItems)
  private var nAnswersSeen = 0L
  private var labelMassSeen = 0L
  private var nItemsSeen = 0
  // 1 + the index of each item among the items of the batch being
  // registered, 0 between batches.
  private val batchSlot = new Array[Int](nItems)

  private def oneHot(n: Int, k: Int) = Array.tabulate(n) { i =>
    val row = new Array[Double](k)
    if (i < k) row(i) = 1.0
    row
  }
  /** ϕ rows, null until [[startPhi]]. */
  val phi: Array[Array[Double]] = new Array[Array[Double]](nItems)
  /** Replaced, never written in place, by each κ pass. */
  var kappa: Array[Array[Double]] = if (cfg.noZ) oneHot(nWorkers, g.M) else CpaCore.initKappa(nWorkers, g.M, cfg.seed)
  private val sensMc = CpaCore.filled(g.M * nLabels, CpaCore.SensStart)
  private val fpMc = CpaCore.filled(g.M * nLabels, CpaCore.FpStart)
  // n̄'s running sums (numerator, denominator), each T long.
  private val nbarNum, nbarDen = new Array[Double](g.T)

  /** Answers, and items with answers, registered so far. */
  def answersSeen: Long = nAnswersSeen
  def itemsSeen: Int = nItemsSeen

  /** Mean labels per registered answer, 1 without answers (anchors n̄ and the fp floor). */
  def meanAnswerSize: Double = if (nAnswersSeen == 0) 1.0 else labelMassSeen.toDouble / nAnswersSeen

  /** Vote counts of item `i`, aligned with its candidate labels. */
  def votesOf(i: Int): Array[Int] = votes(i).clone()

  /** Start every item's ϕ row, once: one-hot under `noL`; otherwise from the
    * votes registered so far ([[CpaCore.initPhi]]) if `fromVotes`, else
    * near-uniform, the start of a stream before its first answer. The rows
    * enter n̄'s sums in item order, so these sums start as a scan's.
    */
  def startPhi(fromVotes: Boolean): Unit = {
    val rows =
      if (cfg.noL) oneHot(nItems, g.T)
      else if (fromVotes) CpaCore.initPhi(cand, votes, g.T, cfg.seed)
      else {
        val rng = new scala.util.Random(cfg.seed)
        Array.fill(nItems)(MathFn.normalise(CpaCore.jittered(g.T, 1.0, 0.05, rng)))
      }
    var i = 0
    while (i < nItems) { phi(i) = rows(i); shiftNbarSums(i, 1.0); i += 1 }
  }

  /** Register `answers`, the only way answers enter a fit. The whole batch is
    * checked first, so an invalid answer leaves the state as it was: every
    * item and worker id must lie within [0, nItems) and [0, nWorkers), and
    * every answer's labels must be strictly increasing within [0, nLabels).
    * Then each item's answers and label votes are counted, the labels new to
    * an item enter its rows at their sorted slots (no votes, llr 0), each
    * item's rows grown once, and every new ŷ slot starts at
    * [[CpaCore.sharpenedShare]] of the item's counts after all of `answers`.
    * n̄'s running sums follow the items' new Σ_c ŷ_ic. Returns the distinct
    * items of `answers`, in order of first appearance.
    */
  def register(answers: Seq[Answer]): Array[Int] = {
    answers.foreach { a =>
      require(a.item >= 0 && a.item < nItems && a.worker >= 0 && a.worker < nWorkers,
        s"$a: item id must be within [0, $nItems) and worker id within [0, $nWorkers)")
      val ls = a.labels
      require(CpaCore.strictlyIncreasing(ls) && (ls.isEmpty || (ls(0) >= 0 && ls(ls.length - 1) < nLabels)),
        s"$a: labels must be strictly increasing (sorted, distinct) within [0, $nLabels)")
    }
    // Bucket the batch's label votes by item, items in order of first
    // appearance: item k's votes go to [start(k), start(k + 1)).
    val items = new Array[Int](answers.size)
    val start = new Array[Int](answers.size + 1)
    var m = 0
    answers.foreach { a =>
      val i = a.item
      if (batchSlot(i) == 0) { items(m) = i; m += 1; batchSlot(i) = m }
      start(batchSlot(i)) += a.labels.length
      if (nAns(i) == 0) nItemsSeen += 1
      nAns(i) += 1.0
      nAnswersSeen += 1
      labelMassSeen += a.labels.length
    }
    var k = 0
    while (k < m) { start(k + 1) += start(k); k += 1 }
    val labels = new Array[Int](start(m))
    val next = java.util.Arrays.copyOf(start, m)
    answers.foreach { a =>
      val b = batchSlot(a.item) - 1
      System.arraycopy(a.labels, 0, labels, next(b), a.labels.length)
      next(b) += a.labels.length
    }
    k = 0
    while (k < m) {
      val i = items(k)
      batchSlot(i) = 0
      java.util.Arrays.sort(labels, start(k), start(k + 1))
      addVotes(i, labels, start(k), start(k + 1))
      shiftNbarSums(i, -1.0)
      startYhat(i)
      shiftNbarSums(i, 1.0)
      k += 1
    }
    java.util.Arrays.copyOf(items, m)
  }

  /** Count the sorted votes `ls(from until to)` into item `i`'s rows, which
    * a merge replaces by rows that hold the labels new to the item too: a new
    * slot has ŷ unset (NaN) and llr 0. An item seen for the first time gets
    * its llr row.
    */
  private def addVotes(i: Int, ls: Array[Int], from: Int, to: Int): Unit = {
    val (cd, vs, ys, lr) = (cand(i), votes(i), yhat(i), llr(i))
    var added = 0
    var j = 0
    var p = from
    while (p < to) {
      while (j < cd.length && cd(j) < ls(p)) j += 1
      if (j == cd.length || cd(j) != ls(p)) added += 1
      val c = ls(p)
      while (p < to && ls(p) == c) p += 1
    }
    val n = cd.length + added
    val (cdOut, vsOut) = (new Array[Int](n), new Array[Int](n))
    val (ysOut, lrOut) = (new Array[Double](n), new Array[Double](n))
    j = 0
    p = from
    var s = 0
    while (s < n) {
      val c = if (p < to && (j == cd.length || ls(p) < cd(j))) ls(p) else cd(j)
      var v = 0
      while (p < to && ls(p) == c) { v += 1; p += 1 }
      cdOut(s) = c
      if (j < cd.length && cd(j) == c) {
        vsOut(s) = vs(j) + v; ysOut(s) = ys(j)
        if (lr != null) lrOut(s) = lr(j)
        j += 1
      } else { vsOut(s) = v; ysOut(s) = Double.NaN }
      s += 1
    }
    cand(i) = cdOut; votes(i) = vsOut; yhat(i) = ysOut; llr(i) = lrOut
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

  /** Add item `i`'s contribution to n̄'s sums times `sign`: −1 takes it out
    * before its ϕ or ŷ is written, +1 puts the new one in. An item whose ϕ
    * row has not started has none: [[startPhi]] puts it in.
    */
  private def shiftNbarSums(i: Int, sign: Double): Unit = {
    val p = phi(i)
    if (p != null) {
      val size = ySize(i)
      var t = 0
      while (t < g.T) { nbarNum(t) += sign * (p(t) * size); nbarDen(t) += sign * p(t); t += 1 }
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
    *     ones; n̄ from the running sums;
    *  4. the community coins, blended with ω;
    *  5. ϕ of `items` (Eq 3 + answer term), blended with ω;
    *  6. the damped truth step on `items` not pinned by [[pinTruth]];
    *  7. [[globalStep]] from the updated κ of `workers` and ϕ, ŷ of `items`.
    * Steps 5 and 6 move n̄'s sums by the contributions of `items`. Returns
    * (Σ |Δϕ|, Σ |Δŷ|) over the updated rows.
    */
  def step(engine: CpaEngine, omega: Double, items: Array[Int], workers: Array[Int]): (Double, Double) = {
    val d = CpaCore.derive(g)
    if (!cfg.noZ) kappa = engine.computeKappa(kappa, phi, d)
    val st = engine.computeStats(g.T, g.M, g.C, nItems, kappa, phi, cand, yhat, d, sensMc, fpMc)
    if (engine.nAnswers == answersSeen) llr = st.llr
    else items.foreach(i => CpaCore.addInto(llr(i), st.llr(i)))
    val truth = CpaCore.truthLayer(g, nbarNum, nbarDen, meanAnswerSize, llr, nAns)
    val (sens, fp) = CpaCore.communityCoins(st, meanAnswerSize)
    CpaCore.blend(sensMc, sens, omega)
    CpaCore.blend(fpMc, fp, omega)
    items.foreach(shiftNbarSums(_, -1.0))
    var dPhi = 0.0
    if (!cfg.noL) items.foreach { i =>
      dPhi += CpaCore.blend(phi(i), CpaCore.phiRow(st.aIt(i), cand(i), yhat(i), d), omega)
    }
    val truthItems = items.filter(known(_) == null)
    val dY = CpaCore.truthStep(truthItems, cand, yhat, phi, truth)
    truthItems.foreach(i => ySize(i) = yhat(i).sum)
    items.foreach(shiftNbarSums(_, 1.0))
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
    * layer over [[llr]] with n̄ from the running sums. Every array is copied
    * (an unseen item's llr row stays null), so later steps leave the model
    * as is.
    */
  def toModel(iterations: Int): CpaModel = {
    def copy(rows: Array[Array[Double]]) = rows.map(r => if (r == null) null else r.clone())
    new CpaModel(cfg, nItems, nWorkers, nLabels, g.copyOf(), copy(kappa), copy(phi),
      cand.map(_.clone()), copy(yhat), known.clone(),
      CpaCore.truthLayer(g, nbarNum, nbarDen, meanAnswerSize, copy(llr), nAns.clone()),
      sensMc.clone(), fpMc.clone(), iterations)
  }
}

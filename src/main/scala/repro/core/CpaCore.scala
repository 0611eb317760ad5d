package repro.core

import repro.crowd.Answer
import repro.util.MathFn._
import repro.util.Par

import scala.collection.mutable.ArrayBuilder

/** Shared computational kernel of the CPA model (§3).
  *
  * All update equations of Algorithm 1/2 are implemented here as pure
  * functions over plain arrays so that the driver-local engines
  * ([[CpaVi]], [[CpaSvi]]) and the Spark engine
  * ([[repro.spark.CpaSpark]]) execute *identical* numerics — the Spark
  * version only changes where the per-answer sufficient statistics are
  * accumulated (executors instead of a local loop).
  *
  * Variational state (Table 2 of the paper):
  *  - `kappa`  (U×M)  — q(z_u), worker-community responsibilities (Eq 2)
  *  - `phi`    (I×T)  — q(l_i), item-cluster responsibilities (Eq 3 + the
  *                      answer-likelihood term, cf. DESIGN.md §2 note 1)
  *  - `rho`    (M×2)  — Beta params of the π stick-breaking (Eq 4)
  *  - `ups`    (T×2)  — Beta params of the τ stick-breaking (Eq 5)
  *  - `lambda` (T×M×C)— Dirichlet params of the confusion ψ_tm (Eq 6)
  *  - `zeta`   (T×C)  — Dirichlet params of the cluster label dist φ_t (Eq 7)
  *  - `yhat`   (I×cand)— soft estimate of the latent true labels (DESIGN.md
  *                      §2 note 2); support restricted to each item's
  *                      candidate labels (labels voted by ≥ 1 worker)
  */
object CpaCore {

  /** Global variational parameters (small and dense; live on the driver). */
  final class Globals(
      val T: Int,
      val M: Int,
      val C: Int,
      val rho1: Array[Double],
      val rho2: Array[Double],
      val ups1: Array[Double],
      val ups2: Array[Double],
      val lambda: Array[Array[Array[Double]]],
      val zeta: Array[Array[Double]]) extends Serializable {
    def copyOf(): Globals = new Globals(T, M, C,
      rho1.clone(), rho2.clone(), ups1.clone(), ups2.clone(),
      lambda.map(_.map(_.clone())), zeta.map(_.clone()))
  }

  /** Expectations derived from [[Globals]] once per VI iteration or SVI
    * batch and broadcast to wherever the per-answer statistics are computed.
    * Holds only what the engine passes and [[phiRow]] read; the truth step
    * and prediction read a [[TruthLayer]] instead.
    *
    * @param elnPi  E[ln π_m] under the stick posterior (M)
    * @param elnTau E[ln τ_t] (T)
    * @param dlam   E[ln ψ_tmc] = ψ(λ_tmc) − ψ(Σ_c λ_tmc)   (T×M×C)
    * @param elphi  E[ln φ_tc]                                 (T×C)
    */
  final class Derived(
      val elnPi: Array[Double],
      val elnTau: Array[Double],
      val dlam: Array[Array[Array[Double]]],
      val elphi: Array[Array[Double]]) extends Serializable

  /** Everything the truth layer reads: [[clusterPrior]], [[inclusionScores]],
    * [[truthStep]] and [[CpaModel.predictItem]] (§3.4 per item).
    *
    * @param phiHat posterior-mean cluster label dist φ̂_tc     (T×C)
    * @param nbar   expected true-label-set size per cluster (T)
    * @param llr    per item, the accumulated vote log-likelihood ratios
    *               aligned with its sorted candidates (null for an item
    *               without answers; see [[SuffStats]])
    * @param nAns   per item: number of answers (I)
    */
  final class TruthLayer(
      val phiHat: Array[Array[Double]],
      val nbar: Array[Double],
      val llr: Array[Array[Double]],
      val nAns: Array[Double]) extends Serializable

  /** Per-iteration sufficient statistics accumulated over answers (the
    * REDUCE-phase payload of Algorithm 3). Mergeable => usable as a Spark
    * aggregation buffer.
    *
    * Java serialization (a Spark task's result) writes a [[PackedStats]] in
    * its place: the λ-stat entries whose raw bits are not +0.0 (the dense
    * λ-stat where that is smaller), the coin arrays, and the held items with
    * their rows in one array. Reading it back rebuilds this dense buffer bit
    * for bit. After the first iteration a partition's λ-stat is mostly zero,
    * since κ and ϕ rows are nearly one-hot, so the packed form is a fraction
    * of the dense T·M·C doubles. Serializers that do not honour
    * `writeReplace` (Kryo) write the fields as they are.
    *
    * @param lamStat  flat T*M*C array: Σ_i ϕ_it κ_um x_iuc (Eq 6 increment)
    * @param aIt      per item, a row of T values (null until the item's first
    *                 answer): aIt(i)(t) = a_it = Σ_{u∈U_i} Σ_m κ_um E[ln p(x_iu|ψ_tm)].
    *                 Per-item rows, like `llr`, keep a pass's statistics the
    *                 size of the answers it folds, not of the corpus
    * @param llr      per item, one row aligned slot for slot with the item's
    *                 sorted candidate labels (null until the item's first
    *                 answer): llr(i)(j) is the accumulated vote log-likelihood
    *                 ratio of label cand(i)(j). Each answering worker
    *                 contributes ln(sens_uc/fp_uc) if they voted c, or the
    *                 discounted omission ratio
    *                 OmissionDiscount·ln((1−sens_uc)/(1−fp_uc)) otherwise
    * @param tpMc/fpMc/posMassMc flat M*C arrays: κ-weighted per-community
    *                 *per-label* true/false positive vote mass and true-label
    *                 exposure mass against the current soft truth — the
    *                 empirical two-coin statistics mirroring the label
    *                 resolution of the paper's confusion ψ_tm
    * @param negAdjMc flat M*C: the candidate-label correction subtracted from
    *                 the false-label exposure; the exposure itself is
    *                 ansMassM(m) − negAdjMc(m,c) so that every answered item
    *                 where c is (confidently) false counts, not only items
    *                 where c was voted by someone
    * @param ansMassM per community: total κ-weighted answer mass
    */
  final class SuffStats(
      val lamStat: Array[Double],
      val aIt: Array[Array[Double]],
      val llr: Array[Array[Double]],
      val tpMc: Array[Double],
      val fpMc: Array[Double],
      val posMassMc: Array[Double],
      val negAdjMc: Array[Double],
      val ansMassM: Array[Double]) extends Serializable {
    require(aIt.length == llr.length, s"${aIt.length} a_it rows, ${llr.length} llr rows")

    private def writeReplace(): AnyRef = PackedStats(this)

    /** Add `o` into this buffer; a row `o` holds and this one does not is
      * copied, so the buffers never share a row.
      */
    def merge(o: SuffStats): SuffStats = {
      addInto(lamStat, o.lamStat)
      var i = 0
      while (i < llr.length) {
        addRow(aIt, i, o.aIt(i))
        addRow(llr, i, o.llr(i))
        i += 1
      }
      addInto(tpMc, o.tpMc); addInto(fpMc, o.fpMc)
      addInto(posMassMc, o.posMassMc); addInto(negAdjMc, o.negAdjMc)
      addInto(ansMassM, o.ansMassM)
      this
    }
  }

  /** The wire form of a [[SuffStats]]. `lamIdx`/`lamVal` are the λ-stat
    * entries whose raw bits are not +0.0, in index order, of `lamLen`. When
    * that takes more bytes than the dense λ-stat (more than 2/3 of the
    * entries set, as under the starting ϕ, whose every entry is set),
    * `lamIdx` is null and `lamVal` is the dense λ-stat. `held` lists the
    * items with a row, in item order, and `shape` their a_it and llr row
    * lengths (−1 for a null row), two per held item; the rows follow one
    * another in `rows`, each item's a_it row before its llr row.
    */
  private final class PackedStats(
      lamLen: Int, lamIdx: Array[Int], lamVal: Array[Double], nItems: Int,
      held: Array[Int], shape: Array[Int], rows: Array[Double],
      tpMc: Array[Double], fpMc: Array[Double], posMassMc: Array[Double],
      negAdjMc: Array[Double], ansMassM: Array[Double]) extends Serializable {

    private def readResolve(): AnyRef = {
      val lamStat = if (lamIdx == null) lamVal else new Array[Double](lamLen)
      var k = 0
      while (lamIdx != null && k < lamIdx.length) { lamStat(lamIdx(k)) = lamVal(k); k += 1 }
      val (aIt, llr) = (new Array[Array[Double]](nItems), new Array[Array[Double]](nItems))
      var at = 0
      def take(n: Int): Array[Double] =
        if (n < 0) null else { at += n; java.util.Arrays.copyOfRange(rows, at - n, at) }
      k = 0
      while (k < held.length) {
        aIt(held(k)) = take(shape(2 * k))
        llr(held(k)) = take(shape(2 * k + 1))
        k += 1
      }
      new SuffStats(lamStat, aIt, llr, tpMc, fpMc, posMassMc, negAdjMc, ansMassM)
    }
  }

  private object PackedStats {
    def apply(st: SuffStats): PackedStats = {
      val lam = st.lamStat
      val (lamIdx, lamVal) = (new ArrayBuilder.ofInt, new ArrayBuilder.ofDouble)
      var k = 0
      while (k < lam.length) {
        // Every bit pattern but +0.0's, −0.0 and NaN included.
        if (java.lang.Double.doubleToRawLongBits(lam(k)) != 0L) { lamIdx += k; lamVal += lam(k) }
        k += 1
      }
      val sparse = 3L * lamIdx.length < 2L * lam.length
      val (held, shape, rows) = (new ArrayBuilder.ofInt, new ArrayBuilder.ofInt, new ArrayBuilder.ofDouble)
      def put(r: Array[Double]): Int = if (r == null) -1 else { rows ++= r; r.length }
      var i = 0
      while (i < st.llr.length) {
        if (st.aIt(i) != null || st.llr(i) != null) { held += i; shape += put(st.aIt(i)); shape += put(st.llr(i)) }
        i += 1
      }
      new PackedStats(lam.length, if (sparse) lamIdx.result() else null, if (sparse) lamVal.result() else lam,
        st.llr.length, held.result(), shape.result(), rows.result(),
        st.tpMc, st.fpMc, st.posMassMc, st.negAdjMc, st.ansMassM)
    }
  }

  /** rows(i) += src, copying `src` into a null row; a null `src` adds nothing. */
  private def addRow(rows: Array[Array[Double]], i: Int, src: Array[Double]): Unit =
    if (src != null) { if (rows(i) == null) rows(i) = src.clone() else addInto(rows(i), src) }

  /** A zero buffer: the dense T·M·C λ-stat and coin statistics, and I-long
    * arrays of null per-item rows.
    */
  def emptyStats(T: Int, M: Int, C: Int, I: Int): SuffStats =
    new SuffStats(new Array[Double](T * M * C), new Array[Array[Double]](I),
      new Array[Array[Double]](I),
      new Array[Double](M * C), new Array[Double](M * C),
      new Array[Double](M * C), new Array[Double](M * C), new Array[Double](M))

  /** dst(k) += src(k) for every k. */
  def addInto(dst: Array[Double], src: Array[Double]): Unit = {
    var k = 0
    while (k < dst.length) { dst(k) += src(k); k += 1 }
  }

  /** Whether `labels` is strictly increasing: the sorted, distinct label set
    * that [[accumulate]]'s two-pointer walk and the candidate-aligned `llr`
    * rows rely on.
    */
  def strictlyIncreasing(labels: Array[Int]): Boolean = {
    var j = 1
    while (j < labels.length && labels(j - 1) < labels(j)) j += 1
    j >= labels.length
  }

  /** Starting community per-label two-coin rates, sensitivity and
    * false-positive rate: a neutral-but-honest start that makes the first
    * step behave like plain (unweighted) voting, like the EM baselines' init.
    * [[communityCoins]] smooths its estimates towards them.
    */
  val SensStart: Double = 0.65
  val FpStart: Double = 0.08

  /** Re-estimate each community's per-label two-coin rates from the
    * accumulated vote statistics. Smoothing priors at the starting rates
    * keep iteration 1 close to plain voting; sharing the statistic at
    * community (not worker) level is what keeps the estimates usable under
    * data sparsity (R1).
    * Returns flat M*C arrays (sens, fp).
    */
  def communityCoins(st: SuffStats, meanAnswerSize: Double): (Array[Double], Array[Double]) = {
    val n = st.tpMc.length
    val M = st.ansMassM.length
    val C = n / math.max(1, M)
    // A wrong vote lands on a given label with probability ~ answerSize/C
    // even for a careless worker; flooring fp there keeps the strength of a
    // single vote bounded for small vocabularies (where 0.01 would make each
    // vote ~4 nats and drown the omission evidence).
    val fpFloor = math.min(0.3, math.max(0.01, 2.0 * meanAnswerSize / math.max(1, C)))
    val sens = new Array[Double](n)
    val fp = new Array[Double](n)
    var i = 0
    while (i < n) {
      val negMass = math.max(0.0, st.ansMassM(i / C) - st.negAdjMc(i))
      sens(i) = math.min(0.97, math.max(0.05, (SensStart * 2.0 + st.tpMc(i)) / (2.0 + st.posMassMc(i))))
      fp(i) = math.min(0.60, math.max(fpFloor, (FpStart * 2.0 + st.fpMc(i)) / (2.0 + negMass)))
      i += 1
    }
    (sens, fp)
  }

  // ---------------------------------------------------------------------
  // Initialisation
  // ---------------------------------------------------------------------

  /** Symmetric prior initialisation of the globals with tiny deterministic
    * jitter on λ to break label-switching symmetry.
    */
  def initGlobals(cfg: CpaConfig, nItems: Int, nWorkers: Int, nLabels: Int): Globals = {
    val T = if (cfg.noL) nItems else math.min(cfg.T, nItems)
    val M = if (cfg.noZ) nWorkers else math.min(cfg.M, nWorkers)
    val rng = new scala.util.Random(cfg.seed)
    // The jitter is drawn in (t, m, c) order.
    val lambda = Array.ofDim[Double](T, M, nLabels)
    var t = 0
    while (t < T) {
      var m = 0
      while (m < M) {
        val row = lambda(t)(m)
        var c = 0
        while (c < nLabels) { row(c) = cfg.lambda0 * (1.0 + 0.01 * rng.nextDouble()); c += 1 }
        m += 1
      }
      t += 1
    }
    new Globals(T, M, nLabels,
      filled(M, 1.0), filled(M, cfg.alpha),
      filled(T, 1.0), filled(T, cfg.eps),
      lambda, Array.fill(T)(filled(nLabels, cfg.zeta0)))
  }

  /** A fresh array of `n` copies of `x`, without boxing (`Array.fill` boxes
    * every element of a `Double` array).
    */
  def filled(n: Int, x: Double): Array[Double] = {
    val a = new Array[Double](n)
    java.util.Arrays.fill(a, x)
    a
  }

  /** Informative initialisation of the item-cluster responsibilities from
    * registered candidate rows and their aligned vote counts: items sharing a
    * top label (most votes, the smallest on ties; label i without votes)
    * start in the same cluster (the VI refines this). Returns an I×T matrix.
    */
  def initPhi(cand: Array[Array[Int]], votes: Array[Array[Int]], T: Int, seed: Long): Array[Array[Double]] = {
    val rng = new scala.util.Random(seed)
    Array.tabulate(cand.length) { i =>
      var top = i
      var most = 0
      var j = 0
      while (j < cand(i).length) {
        if (votes(i)(j) > most) { most = votes(i)(j); top = cand(i)(j) }
        j += 1
      }
      val row = jittered(T, 0.05 / T, 1e-4, rng)
      row(math.floorMod(top, T)) += 0.95
      normalise(row)
    }
  }

  /** Worker-community responsibilities: hard-ish random partition. A
    * symmetric init is a (bad) mean-field fixed point — identical κ rows make
    * all confusion rows λ_tm identical, which keeps κ identical forever and
    * collapses every worker into one community.
    */
  def initKappa(nWorkers: Int, M: Int, seed: Long): Array[Array[Double]] = {
    val rng = new scala.util.Random(seed + 1)
    Array.tabulate(nWorkers) { u =>
      val row = jittered(M, 0.5 / M, 0.02, rng)
      row(u % M) += 0.5
      normalise(row)
    }
  }

  /** `n` values base + scale·u, with u drawn from `rng` in index order; the
    * jitter of the starting ϕ and κ rows, without boxing.
    */
  def jittered(n: Int, base: Double, scale: Double, rng: scala.util.Random): Array[Double] = {
    val row = new Array[Double](n)
    var k = 0
    while (k < n) { row(k) = base + scale * rng.nextDouble(); k += 1 }
    row
  }

  /** Candidate label set per item = labels voted by at least one worker, as
    * a sorted row of distinct labels (empty for an item without votes).
    */
  def candidates(answers: IterableOnce[Answer], nItems: Int): Array[Array[Int]] = {
    val votes = new Array[Array[Int]](nItems)
    val n = new Array[Int](nItems)
    answers.iterator.foreach { a =>
      val (i, ls) = (a.item, a.labels)
      if (votes(i) == null) votes(i) = new Array[Int](math.max(4, ls.length))
      else if (n(i) + ls.length > votes(i).length)
        votes(i) = java.util.Arrays.copyOf(votes(i), math.max(n(i) + ls.length, 2 * votes(i).length))
      System.arraycopy(ls, 0, votes(i), n(i), ls.length)
      n(i) += ls.length
    }
    Array.tabulate(nItems) { i =>
      val row = votes(i)
      if (row == null) Array.emptyIntArray
      else {
        java.util.Arrays.sort(row, 0, n(i))
        var d = 0
        var k = 0
        while (k < n(i)) { if (d == 0 || row(d - 1) != row(k)) { row(d) = row(k); d += 1 }; k += 1 }
        java.util.Arrays.copyOf(row, d)
      }
    }
  }

  /** The sorted union of the sorted, distinct rows `a` and `b`: `a` itself
    * when `b` adds no label.
    */
  def union(a: Array[Int], b: Array[Int]): Array[Int] = {
    var added = 0
    var j = 0
    var k = 0
    while (k < b.length) {
      while (j < a.length && a(j) < b(k)) j += 1
      if (j == a.length || a(j) != b(k)) added += 1
      k += 1
    }
    if (added == 0) a
    else {
      val out = new Array[Int](a.length + added)
      j = 0; k = 0
      var s = 0
      while (s < out.length) {
        if (k == b.length || (j < a.length && a(j) < b(k))) { out(s) = a(j); j += 1 }
        else { if (j < a.length && a(j) == b(k)) j += 1; out(s) = b(k); k += 1 }
        s += 1
      }
      out
    }
  }

  /** Starting soft truth of a label with `votes` of an item's `nAns` answers:
    * its vote share, sharpened around the majority threshold
    * (σ(8·(share − 0.5))). The sharpening matters: the ŷ ↔ community-coin
    * fixed point is bistable, and a raw-fraction start leaves
    * systematically-wrong sub-majority labels (plausible confusions) in the
    * "true" basin where they count as true positives forever.
    */
  def sharpenedShare(votes: Double, nAns: Double): Double =
    1.0 / (1.0 + math.exp(-8.0 * (votes / nAns - 0.5)))

  /** Mean number of labels per answer, 1 without answers (anchors n̄ and the fp floor). */
  def meanAnswerSize(answers: Seq[Answer]): Double =
    if (answers.isEmpty) 1.0 else answers.iterator.map(_.labels.length).sum.toDouble / answers.size

  // ---------------------------------------------------------------------
  // Expectations derived from the globals (once per iteration)
  // ---------------------------------------------------------------------

  /** E[ln of stick proportions] for a truncated stick-breaking posterior with
    * Beta(a_k, b_k) sticks: E[ln w_m] = E[ln v_m] + Σ_{k<m} E[ln(1−v_k)].
    */
  def sticksElog(a: Array[Double], b: Array[Double]): Array[Double] = {
    val n = a.length
    val out = new Array[Double](n)
    var acc = 0.0
    var m = 0
    while (m < n) {
      val dab = digamma(a(m) + b(m))
      out(m) = digamma(a(m)) - dab + acc
      acc += digamma(b(m)) - dab
      m += 1
    }
    out
  }

  /** E[ln p_c] for a Dirichlet(params) row. Most entries of a fitted λ row
    * still hold the prior λ0, so an entry whose raw bits equal the previous
    * entry's reuses its digamma: the same value, at a compare's cost.
    */
  def dirElog(params: Array[Double]): Array[Double] = {
    var s = 0.0
    var c = 0
    while (c < params.length) { s += params(c); c += 1 }
    val ds = digamma(s)
    val out = new Array[Double](params.length)
    var prevBits = 0L
    var prev = 0.0
    c = 0
    while (c < params.length) {
      val bits = java.lang.Double.doubleToRawLongBits(params(c))
      if (c == 0 || bits != prevBits) { prev = digamma(params(c)); prevBits = bits }
      out(c) = prev - ds
      c += 1
    }
    out
  }

  /** Build the expectations the engine passes and [[phiRow]] read. The
    * T·M rows of E[ln ψ] are independent, so they run as parallel rows.
    */
  def derive(g: Globals): Derived = {
    val T = g.T; val M = g.M
    val dlam = Array.ofDim[Array[Double]](T, M)
    Par.foreachRow(T * M, g.C)(k => dlam(k / M)(k % M) = dirElog(g.lambda(k / M)(k % M)))
    new Derived(sticksElog(g.rho1, g.rho2), sticksElog(g.ups1, g.ups2), dlam,
      Array.tabulate(T)(t => dirElog(g.zeta(t))))
  }

  /** Build the truth layer over the vote statistics `llr` and `nAns` (held,
    * not copied). φ̂_t is the posterior mean of the Dirichlet row ζ_t (the
    * mode is undefined for concentrations < 1, so the mean is the robust
    * plug-in — documented deviation from the paper's "mode").
    *
    * @param nbarNum        Σ_i ϕ_it·Σ_c ŷ_ic and `nbarDen` Σ_i ϕ_it per
    *                       cluster (T each; [[CpaState]] keeps them running):
    *                       n̄_t is their quotient, the ϕ-weighted mean truth size
    * @param meanAnswerSize observed mean answer size, which bounds n̄
    */
  def truthLayer(g: Globals, nbarNum: Array[Double], nbarDen: Array[Double],
      meanAnswerSize: Double, llr: Array[Array[Double]], nAns: Array[Double]): TruthLayer = {
    val phiHat = Array.tabulate(g.T)(t => normalise(g.zeta(t)))
    // Anchor n̄ to the observed mean answer size: worker answers are noisy
    // size estimates of the truth; without this anchor the ŷ → ζ → n̄ → ŷ
    // loop can inflate without bound.
    val cap = math.max(1.0, 1.3 * meanAnswerSize)
    val floor = math.max(0.5, 0.7 * meanAnswerSize)
    val nbar = Array.tabulate(g.T) { t =>
      math.min(cap, math.max(floor, if (nbarDen(t) > 1e-9) nbarNum(t) / nbarDen(t) else 1.0))
    }
    new TruthLayer(phiHat, nbar, llr, nAns)
  }

  // ---------------------------------------------------------------------
  // Local updates (Eq 2, Eq 3 + answer term)
  // ---------------------------------------------------------------------

  /** Eq 2 logits of every worker over `answers`: worker u's row is `start`
    * (evaluated once per worker) plus [[addKappaLogits]] of u's answers, in
    * answer order; workers without answers get null. With `start` = E[ln π]
    * the rows are the full logits; with a zero start they are partial sums
    * that add up over any split of the answers.
    */
  def kappaLogits(answers: Iterator[Answer], nWorkers: Int, phi: Array[Array[Double]],
      dlam: Array[Array[Array[Double]]])(start: => Array[Double]): Array[Array[Double]] = {
    val logits = new Array[Array[Double]](nWorkers)
    answers.foreach { a =>
      if (logits(a.worker) == null) logits(a.worker) = start
      addKappaLogits(logits(a.worker), a.labels, phi(a.item), dlam)
    }
    logits
  }

  /** Eq 2: κ_u ∝ exp(logits_u) (terms constant in m dropped), in place on
    * the non-null logit rows; a worker with null logits keeps their `kappa`
    * row itself, not a copy. κ rows are replaced, never written in place, so
    * the new and old κ may share it, and a pass over a batch costs nothing
    * per worker without answers there but the pointer.
    */
  def kappaFromLogits(kappa: Array[Array[Double]], logits: Array[Array[Double]]): Array[Array[Double]] =
    Array.tabulate(kappa.length)(u => if (logits(u) == null) kappa(u) else softmaxInPlace(logits(u)))

  /** Add one answer's Eq 2 term Σ_t ϕ_it Σ_{c ∈ labels} E[ln ψ_tmc] to the
    * worker's logits (M). The terms are additive over answers, so partial
    * sums over any split of a worker's answers add up to the same logits.
    */
  def addKappaLogits(logits: Array[Double], labels: Array[Int], phiRow: Array[Double],
      dlam: Array[Array[Array[Double]]]): Unit = {
    val M = logits.length
    val T = dlam.length
    var m = 0
    while (m < M) {
      var s = 0.0
      var t = 0
      while (t < T) {
        val p = phiRow(t)
        if (p > 1e-12) {
          val row = dlam(t)(m)
          var j = 0
          var e = 0.0
          while (j < labels.length) { e += row(labels(j)); j += 1 }
          s += p * e
        }
        t += 1
      }
      logits(m) += s
      m += 1
    }
  }

  /** Weight of omission evidence relative to positive-vote evidence. In
    * partial-agreement tasks "interpreting a missing label as a negative
    * answer is not always correct" (§2.1) — workers omit labels they simply
    * did not consider. Baselines (MV/EM/cBCC per-label decomposition) treat
    * an omission as a full negative vote; CPA discounts it.
    */
  val OmissionDiscount: Double = 0.7

  /** Effective number of independent witnesses per item. Crowd errors are
    * correlated (shared item difficulty, shared plausible confusions), so
    * the per-label vote evidence of an item with many answers is scaled by
    * min(1, EffectiveVoters / n_i) rather than accumulating linearly.
    */
  val EffectiveVoters: Double = 9.0

  /** Add one answer's bootstrap λ statistic ϕ⁰_it·κ⁰_um·x_iuc (Eq 6 at the
    * initial responsibilities) into the flat T*M*C array `stat`. Every
    * engine's [[CpaEngine.bootstrapLambda]] is a pass of this kernel.
    */
  def accumulateLambda(stat: Array[Double], labels: Array[Int],
      phiRow: Array[Double], kapU: Array[Double], C: Int): Unit = {
    val T = phiRow.length
    val M = kapU.length
    var t = 0
    while (t < T) {
      val p = phiRow(t)
      if (p > 1e-12) {
        var m = 0
        while (m < M) {
          val w = p * kapU(m)
          if (w > 1e-12) {
            val base = (t * M + m) * C
            var j = 0
            while (j < labels.length) { stat(base + labels(j)) += w; j += 1 }
          }
          m += 1
        }
      }
      t += 1
    }
  }

  /** Accumulate one answer's contribution into the iteration statistics.
    * Used identically by the local loop and by Spark executors; of the
    * derived quantities it reads only `dlam` = E[ln ψ] (T×M×C).
    */
  def accumulate(st: SuffStats, a: Answer, kapU: Array[Double],
      phiRowOld: Array[Double], dlam: Array[Array[Array[Double]]],
      cand: Array[Int], yhatRow: Array[Double],
      sensMc: Array[Double], fpMc: Array[Double]): Unit = {
    val T = dlam.length
    val M = kapU.length
    val C = dlam(0)(0).length
    // λ statistic (Eq 6) and a_it (answer term of the ϕ update / Eq 15).
    var aRow = st.aIt(a.item)
    if (aRow == null) { aRow = new Array[Double](T); st.aIt(a.item) = aRow }
    var t = 0
    while (t < T) {
      val pOld = phiRowOld(t)
      var aContrib = 0.0
      var m = 0
      while (m < M) {
        val k = kapU(m)
        if (k > 1e-12) {
          val row = dlam(t)(m)
          var e = 0.0
          var j = 0
          while (j < a.labels.length) { e += row(a.labels(j)); j += 1 }
          aContrib += k * e
          if (pOld > 1e-12) {
            val w = pOld * k
            val base = (t * M + m) * C
            j = 0
            while (j < a.labels.length) { st.lamStat(base + a.labels(j)) += w; j += 1 }
          }
        }
        m += 1
      }
      aRow(t) += aContrib
      t += 1
    }

    // Truth-layer statistics over the item's candidate labels. The negative
    // universe is the candidate set, not the whole vocabulary: measuring fp
    // against all C labels would make every vote near-infinite evidence for
    // large vocabularies.
    var llrRow = st.llr(a.item)
    if (llrRow == null) { llrRow = new Array[Double](cand.length); st.llr(a.item) = llrRow }
    var j = 0
    var v = 0 // two-pointer walk: both cand and a.labels are sorted
    while (j < cand.length) {
      val c = cand(j)
      while (v < a.labels.length && a.labels(v) < c) v += 1
      val voted = v < a.labels.length && a.labels(v) == c
      // Worker's per-label two-coin rates = κ-mixture of community rates.
      var sens = 0.0
      var fp = 0.0
      var m = 0
      while (m < M) {
        val k = kapU(m)
        if (k > 1e-12) { sens += k * sensMc(m * C + c); fp += k * fpMc(m * C + c) }
        m += 1
      }
      sens = math.min(0.97, math.max(0.05, sens))
      fp = math.min(0.60, math.max(0.01, fp))
      val delta =
        if (voted) math.log(sens / fp)
        else OmissionDiscount * math.log((1.0 - sens) / (1.0 - fp))
      llrRow(j) += delta
      // Per-community per-label coin statistics vs the current soft truth.
      // Only *confident* truth estimates teach us about worker reliability:
      // a mid-confidence label (y ≈ 0.5) is exactly the case under dispute,
      // and letting it vote on the coins creates two failure modes — it
      // inflates sensitivity / deflates fp when treated as true (locking
      // plausible confusions in), or inflates fp when treated as false
      // (a death spiral on difficult data where nothing starts confident).
      val y = yhatRow(j)
      val wPos = math.max(0.0, (y - 0.5) * 2.0)
      val wNeg = math.max(0.0, (0.5 - y) * 2.0)
      m = 0
      while (m < M) {
        val k = kapU(m)
        if (k > 1e-12) {
          val idx = m * C + c
          st.posMassMc(idx) += k * wPos
          // False-label exposure is counted via the complement: the answer
          // contributes to every label's negMass by default (ansMassM below);
          // candidate labels deduct the non-negative-confidence part.
          st.negAdjMc(idx) += k * (1.0 - wNeg)
          if (voted) { st.tpMc(idx) += k * wPos; st.fpMc(idx) += k * wNeg }
        }
        m += 1
      }
      j += 1
    }
    var m3 = 0
    while (m3 < M) { st.ansMassM(m3) += kapU(m3); m3 += 1 }
  }

  // ---------------------------------------------------------------------
  // Driver-side updates from accumulated statistics
  // ---------------------------------------------------------------------

  /** Weight of the estimated-truth term in the ϕ update. The soft truth ŷ is
    * a far less noisy description of an item than its raw answers (spam and
    * distractor votes already down-weighted), so up-weighting it sharpens
    * cluster segmentation when label cores overlap.
    */
  val YTermWeight: Double = 3.0

  /** New ϕ row (item-cluster responsibilities) from the item's a_it row
    * `aRow`, the current soft truth, and E[ln τ]:
    * ϕ_it ∝ exp(E[ln τ_t] + Σ_c ŷ_ic E[ln φ_tc] + a_it). A null `aRow` (no
    * answer in the pass) adds 0.0, as a zero row does.
    */
  def phiRow(aRow: Array[Double], cand: Array[Int], yhat: Array[Double],
      d: Derived): Array[Double] = {
    val T = d.elnTau.length
    val logits = new Array[Double](T)
    var t = 0
    while (t < T) {
      var yTerm = 0.0
      val el = d.elphi(t)
      var j = 0
      while (j < cand.length) { yTerm += yhat(j) * el(cand(j)); j += 1 }
      logits(t) = d.elnTau(t) + YTermWeight * yTerm + (if (aRow == null) 0.0 else aRow(t))
      t += 1
    }
    softmaxInPlace(logits)
  }

  /** Cluster-mixture prior of label c on an item with responsibilities
    * `phiRow`: p0_c = Σ_t ϕ_it min(0.97, n̄_t φ̂_tc), clamped to [0.01, 0.95].
    */
  def clusterPrior(c: Int, phiRow: Array[Double], tl: TruthLayer): Double = {
    var p0 = 0.0
    var t = 0
    while (t < phiRow.length) {
      p0 += phiRow(t) * math.min(0.97, tl.nbar(t) * tl.phiHat(t)(c))
      t += 1
    }
    math.min(0.95, math.max(0.01, p0))
  }

  /** Scale of an item's vote evidence given its `nAns` answers:
    * min(1, EffectiveVoters / n_i).
    */
  def evidenceScale(nAns: Double): Double = math.min(1.0, EffectiveVoters / math.max(1.0, nAns))

  /** Per-label inclusion posterior for the latent truth (DESIGN.md §2 note 2):
    * the [[clusterPrior]] p0_c combined with the vote log-likelihood ratio
    * scaled by [[evidenceScale]]. Returns values for the given sorted label
    * set; `cand` is the item's sorted candidate set that `tl.llr(item)` is
    * aligned with. Labels outside it have no vote evidence (llr 0).
    */
  def inclusionScores(item: Int, labels: Array[Int], cand: Array[Int], phiRow: Array[Double],
      tl: TruthLayer): Array[Double] = {
    val row = tl.llr(item)
    val scale = evidenceScale(tl.nAns(item))
    val out = new Array[Double](labels.length)
    var k = 0 // two-pointer walk: both labels and cand are sorted
    var j = 0
    while (j < labels.length) {
      val c = labels(j)
      val p0 = clusterPrior(c, phiRow, tl)
      var vote = 0.0
      if (row != null) {
        while (k < cand.length && cand(k) < c) k += 1
        if (k < cand.length && cand(k) == c) vote = row(k)
      }
      val llr = scale * vote
      val logOdds = math.log(p0 / (1.0 - p0)) + llr
      out(j) = 1.0 / (1.0 + math.exp(-logOdds))
      j += 1
    }
    out
  }

  /** Latent-truth step on `items`: the damped update
    * ŷ_i ← ½·ŷ_i + ½·[[inclusionScores]] over each item's candidates, in
    * place (the damping stabilises the truth-estimation fixed point).
    * Returns Σ |Δŷ| over all updated slots.
    */
  def truthStep(items: Array[Int], cand: Array[Array[Int]], yhat: Array[Array[Double]],
      phi: Array[Array[Double]], tl: TruthLayer): Double = {
    var delta = 0.0
    var k = 0
    while (k < items.length) {
      val i = items(k)
      val y = yhat(i)
      val s = inclusionScores(i, cand(i), cand(i), phi(i), tl)
      var j = 0
      while (j < s.length) {
        val v = 0.5 * y(j) + 0.5 * s(j)
        delta += math.abs(v - y(j)); y(j) = v; j += 1
      }
      k += 1
    }
    delta
  }

  /** x ← (1−ω)·x + ω·target, in place; returns Σ |Δx|. At ω = 1 it writes
    * the target exactly.
    */
  def blend(x: Array[Double], target: Array[Double], omega: Double): Double = {
    var delta = 0.0
    var i = 0
    while (i < x.length) {
      val v = (1 - omega) * x(i) + omega * target(i)
      delta += math.abs(v - x(i)); x(i) = v; i += 1
    }
    delta
  }

  /** Global updates (Eq 4-7 / Eq 18-19) as one natural-gradient step
    * G ← (1−ω)·G + ω·(G0 + scale·S) on each of λ (S = `lamStat`), ρ (Σ κ over
    * `workers`), υ (Σ ϕ over `items`) and ζ (Σ ϕŷ over `items`), mutating `g`
    * (Hoffman et al., 2013, eq. 2.6). Batch VI is ω = 1 with unit scales over
    * all workers and items; SVI passes ω_b, its batch and the batch-to-corpus
    * scales, which [[CpaState.globalStep]] works out for both.
    */
  def updateGlobals(g: Globals, cfg: CpaConfig, omega: Double,
      lamStat: Array[Double], ansScale: Double,
      workers: Array[Int], kappa: Array[Array[Double]], workerScale: Double,
      items: Array[Int], phi: Array[Array[Double]], cand: Array[Array[Int]],
      yhat: Array[Array[Double]], itemScale: Double): Unit = {
    val T = g.T; val M = g.M; val C = g.C
    // λ row (t, m) = k reads only lamStat's slots [k·C, (k+1)·C); the blend
    // is `blend`'s, written in place against λ0 + scale·S.
    Par.foreachRow(T * M, C) { k =>
      val x = g.lambda(k / M)(k % M)
      var c = 0
      while (c < C) {
        x(c) = (1 - omega) * x(c) + omega * (cfg.lambda0 + ansScale * lamStat(k * C + c)); c += 1
      }
    }
    val zetaHat = Array.fill(T)(filled(C, cfg.zeta0))
    val phiSum = new Array[Double](T)
    var t = 0
    var k = 0
    while (k < items.length) {
      val i = items(k); val cd = cand(i); val yh = yhat(i)
      t = 0
      while (t < T) {
        val w = phi(i)(t)
        phiSum(t) += itemScale * w
        if (w > 1e-12) {
          var j = 0
          while (j < cd.length) { zetaHat(t)(cd(j)) += itemScale * w * yh(j); j += 1 }
        }
        t += 1
      }
      k += 1
    }
    t = 0
    while (t < T) { blend(g.zeta(t), zetaHat(t), omega); t += 1 }
    val kapSum = new Array[Double](M)
    k = 0
    while (k < workers.length) {
      val row = kappa(workers(k))
      var m = 0
      while (m < M) { kapSum(m) += workerScale * row(m); m += 1 }
      k += 1
    }
    val (r1, r2) = updateSticks(kapSum, cfg.alpha)
    blend(g.rho1, r1, omega); blend(g.rho2, r2, omega)
    val (u1, u2) = updateSticks(phiSum, cfg.eps)
    blend(g.ups1, u1, omega); blend(g.ups2, u2, omega)
    ()
  }

  /** Eq 4 globals: ρ_m1 = 1 + Σ_u κ_um; ρ_m2 = α + Σ_u Σ_{l>m} κ_ul. */
  def updateSticks(stat: Array[Double], conc: Double): (Array[Double], Array[Double]) = {
    val n = stat.length
    val a = new Array[Double](n)
    val b = new Array[Double](n)
    var tail = stat.sum
    var m = 0
    while (m < n) {
      tail -= stat(m)
      a(m) = 1.0 + stat(m)
      b(m) = conc + tail
      m += 1
    }
    (a, b)
  }
}

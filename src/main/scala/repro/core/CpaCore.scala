package repro.core

import repro.crowd.Answer
import repro.util.MathFn._

import scala.collection.mutable

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
    * @param lamStat  flat T*M*C array: Σ_i ϕ_it κ_um x_iuc (Eq 6 increment)
    * @param aIt      flat I*T array: a_it = Σ_{u∈U_i} Σ_m κ_um E[ln p(x_iu|ψ_tm)]
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
      val aIt: Array[Double],
      val llr: Array[Array[Double]],
      val tpMc: Array[Double],
      val fpMc: Array[Double],
      val posMassMc: Array[Double],
      val negAdjMc: Array[Double],
      val ansMassM: Array[Double]) extends Serializable {
    def merge(o: SuffStats): SuffStats = {
      addInto(lamStat, o.lamStat)
      addInto(aIt, o.aIt)
      var i = 0
      while (i < llr.length) {
        val src = o.llr(i)
        if (src != null) {
          if (llr(i) == null) llr(i) = src.clone() else addInto(llr(i), src)
        }
        i += 1
      }
      addInto(tpMc, o.tpMc); addInto(fpMc, o.fpMc)
      addInto(posMassMc, o.posMassMc); addInto(negAdjMc, o.negAdjMc)
      addInto(ansMassM, o.ansMassM)
      this
    }
  }

  def emptyStats(T: Int, M: Int, C: Int, I: Int): SuffStats =
    new SuffStats(new Array[Double](T * M * C), new Array[Double](I * T),
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

  /** Reject any answer whose item or worker id is outside [0, nItems) or
    * [0, nWorkers).
    */
  def requireValidIds(answers: Iterable[Answer], nItems: Int, nWorkers: Int): Unit =
    answers.foreach { a =>
      require(a.item >= 0 && a.item < nItems && a.worker >= 0 && a.worker < nWorkers,
        s"$a: item id must be within [0, $nItems) and worker id within [0, $nWorkers)")
    }

  /** Reject any answer whose labels are not strictly increasing within
    * [0, nLabels).
    */
  def requireValidLabels(answers: Iterable[Answer], nLabels: Int): Unit =
    answers.foreach { a =>
      val ls = a.labels
      require(strictlyIncreasing(ls) && (ls.isEmpty || (ls(0) >= 0 && ls(ls.length - 1) < nLabels)),
        s"$a: labels must be strictly increasing (sorted, distinct) within [0, $nLabels)")
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
    val lambda = Array.fill(T, M, nLabels)(cfg.lambda0 * (1.0 + 0.01 * rng.nextDouble()))
    val zeta = Array.fill(T, nLabels)(cfg.zeta0)
    new Globals(T, M, nLabels,
      Array.fill(M)(1.0), Array.fill(M)(cfg.alpha),
      Array.fill(T)(1.0), Array.fill(T)(cfg.eps),
      lambda, zeta)
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
      val row = Array.fill(T)(0.05 / T + 1e-4 * rng.nextDouble())
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
      val row = Array.fill(M)(0.5 / M + 0.02 * rng.nextDouble())
      row(u % M) += 0.5
      normalise(row)
    }
  }

  /** Candidate label set per item = labels voted by at least one worker. */
  def candidates(answers: IterableOnce[Answer], nItems: Int): Array[Array[Int]] = {
    val sets = Array.fill(nItems)(mutable.SortedSet.empty[Int])
    answers.iterator.foreach(a => a.labels.foreach(sets(a.item) += _))
    sets.map(_.toArray)
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

  /** E[ln p_c] for a Dirichlet(params) row. */
  def dirElog(params: Array[Double]): Array[Double] = {
    var s = 0.0
    var c = 0
    while (c < params.length) { s += params(c); c += 1 }
    val ds = digamma(s)
    val out = new Array[Double](params.length)
    c = 0
    while (c < params.length) { out(c) = digamma(params(c)) - ds; c += 1 }
    out
  }

  /** Build the expectations the engine passes and [[phiRow]] read. */
  def derive(g: Globals): Derived = {
    val T = g.T; val M = g.M
    new Derived(sticksElog(g.rho1, g.rho2), sticksElog(g.ups1, g.ups2),
      Array.tabulate(T, M)((t, m) => dirElog(g.lambda(t)(m))),
      Array.tabulate(T)(t => dirElog(g.zeta(t))))
  }

  /** Build the truth layer over the vote statistics `llr` and `nAns` (held,
    * not copied). φ̂_t is the posterior mean of the Dirichlet row ζ_t (the
    * mode is undefined for concentrations < 1, so the mean is the robust
    * plug-in — documented deviation from the paper's "mode").
    *
    * @param phi            current ϕ (I×T) and `yhatSize` the matching
    *                       Σ_c ŷ_ic per item (I): n̄_t is their ϕ-weighted mean
    * @param meanAnswerSize observed mean answer size, which bounds n̄
    */
  def truthLayer(g: Globals, phi: Array[Array[Double]], yhatSize: Array[Double],
      meanAnswerSize: Double, llr: Array[Array[Double]], nAns: Array[Double]): TruthLayer = {
    val T = g.T
    val phiHat = Array.tabulate(T)(t => normalise(g.zeta(t)))

    // Expected label-set size per cluster: ϕ-mass-weighted mean of Σ_c ŷ_ic.
    // Anchor it to the observed mean answer size: worker answers are noisy
    // size estimates of the truth; without this anchor the ŷ → ζ → n̄ → ŷ
    // loop can inflate without bound.
    val num = new Array[Double](T)
    val den = new Array[Double](T)
    var i = 0
    while (i < phi.length) {
      var t = 0
      while (t < T) { num(t) += phi(i)(t) * yhatSize(i); den(t) += phi(i)(t); t += 1 }
      i += 1
    }
    val cap = math.max(1.0, 1.3 * meanAnswerSize)
    val floor = math.max(0.5, 0.7 * meanAnswerSize)
    val nbar = Array.tabulate(T) { t =>
      math.min(cap, math.max(floor, if (den(t) > 1e-9) num(t) / den(t) else 1.0))
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
    * the non-null logit rows; a worker with null logits keeps a copy of their
    * `kappa` row.
    */
  def kappaFromLogits(kappa: Array[Array[Double]], logits: Array[Array[Double]]): Array[Array[Double]] =
    Array.tabulate(kappa.length)(u => if (logits(u) == null) kappa(u).clone() else softmaxInPlace(logits(u)))

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
      st.aIt(a.item * T + t) += aContrib
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

  /** New ϕ row (item-cluster responsibilities) from a_it, the current soft
    * truth, and E[ln τ]: ϕ_it ∝ exp(E[ln τ_t] + Σ_c ŷ_ic E[ln φ_tc] + a_it).
    */
  def phiRow(item: Int, aIt: Array[Double], cand: Array[Int], yhat: Array[Double],
      d: Derived): Array[Double] = {
    val T = d.elnTau.length
    val logits = new Array[Double](T)
    var t = 0
    while (t < T) {
      var yTerm = 0.0
      val el = d.elphi(t)
      var j = 0
      while (j < cand.length) { yTerm += yhat(j) * el(cand(j)); j += 1 }
      logits(t) = d.elnTau(t) + YTermWeight * yTerm + aIt(item * T + t)
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
    val lamHat = new Array[Double](C)
    var t = 0
    while (t < T) {
      var m = 0
      while (m < M) {
        val base = (t * M + m) * C
        var c = 0
        while (c < C) { lamHat(c) = cfg.lambda0 + ansScale * lamStat(base + c); c += 1 }
        blend(g.lambda(t)(m), lamHat, omega)
        m += 1
      }
      t += 1
    }
    val zetaHat = Array.fill(T, C)(cfg.zeta0)
    val phiSum = new Array[Double](T)
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

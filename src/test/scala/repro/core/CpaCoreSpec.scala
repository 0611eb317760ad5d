package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.Answer
import repro.util.MathFn

class CpaCoreSpec extends AnyFunSuite {
  import CpaCore._

  private val answers = Vector(
    Answer(0, 0, Array(0, 1)), Answer(0, 1, Array(1)),
    Answer(1, 0, Array(2)), Answer(1, 2, Array(2, 3)),
    Answer(2, 1, Array(0)), Answer(2, 2, Array(0, 1)))
  private val I = 3; private val U = 3; private val C = 4

  test("sticksElog of uniform Beta(1,1) sticks decreases in the index") {
    val e = sticksElog(Array.fill(4)(1.0), Array.fill(4)(1.0))
    assert(e.zip(e.tail).forall { case (a, b) => a > b })
  }
  test("sticksElog concentrates mass on heavy sticks") {
    val e = sticksElog(Array(100.0, 1.0), Array(1.0, 1.0))
    assert(e(0) > e(1))
    assert(math.exp(e(0)) > 0.9)
  }
  test("exp(sticksElog) is a sub-distribution") {
    val e = sticksElog(Array(3.0, 2.0, 5.0), Array(4.0, 2.0, 1.0))
    assert(e.map(math.exp).sum <= 1.0 + 1e-9)
  }

  test("dirElog matches digamma differences") {
    val p = Array(2.0, 3.0, 5.0)
    val e = dirElog(p)
    val ds = MathFn.digamma(10.0)
    p.indices.foreach(i => assert(math.abs(e(i) - (MathFn.digamma(p(i)) - ds)) < 1e-12))
  }
  test("dirMean is the normalised parameter vector") {
    val m = dirMean(Array(1.0, 3.0))
    assert(math.abs(m(0) - 0.25) < 1e-12 && math.abs(m(1) - 0.75) < 1e-12)
  }

  test("updateSticks implements Eq 4/5") {
    val (a, b) = updateSticks(Array(2.0, 3.0, 1.0), conc = 0.5)
    assert(a.sameElements(Array(3.0, 4.0, 2.0)))
    assert(math.abs(b(0) - (0.5 + 4.0)) < 1e-12)
    assert(math.abs(b(1) - (0.5 + 1.0)) < 1e-12)
    assert(math.abs(b(2) - 0.5) < 1e-12)
  }

  test("colSums sums rows") {
    assert(colSums(Array(Array(1.0, 2.0), Array(3.0, 4.0))).sameElements(Array(4.0, 6.0)))
    assert(colSums(Array.empty[Array[Double]]).isEmpty)
  }

  test("candidates collects voted labels per item, sorted") {
    val cand = candidates(answers, I)
    assert(cand(0).sameElements(Array(0, 1)))
    assert(cand(1).sameElements(Array(2, 3)))
    assert(cand(2).sameElements(Array(0, 1)))
  }
  test("candidates of an unanswered item is empty") {
    assert(candidates(answers, 4)(3).isEmpty)
  }

  test("initYhat sharpens vote shares around 0.5") {
    val cand = candidates(answers, I)
    val y = initYhat(answers, I, cand)
    // item 0: label 1 voted 2/2 -> close to 1; label 0 voted 1/2 -> 0.5.
    assert(y(0)(1) > 0.9)
    assert(math.abs(y(0)(0) - 0.5) < 1e-9)
  }

  test("initPhi groups items sharing a dominant label") {
    val phi = initPhi(answers, I, T = 5, seed = 1)
    phi.foreach { row => assert(math.abs(row.sum - 1.0) < 1e-9) }
    // dominant labels: item 0 -> 1 (two votes), item 1 -> 2, item 2 -> 0;
    // each seeds the slot (topLabel mod T).
    assert(phi(0).indexOf(phi(0).max) == 1)
    assert(phi(1).indexOf(phi(1).max) == 2)
    assert(phi(2).indexOf(phi(2).max) == 0)
  }

  test("initKappa rows are distributions with a dominant slot") {
    val k = initKappa(10, 4, seed = 2)
    k.zipWithIndex.foreach { case (row, u) =>
      assert(math.abs(row.sum - 1.0) < 1e-9)
      assert(row.indexOf(row.max) == u % 4)
    }
  }

  test("initGlobals respects truncations and ablation flags") {
    val g = initGlobals(CpaConfig(T = 10, M = 4), nItems = 50, nWorkers = 20, nLabels = 6)
    assert(g.T == 10 && g.M == 4 && g.C == 6)
    val noZ = initGlobals(CpaConfig(T = 10, M = 4, noZ = true), 50, 20, 6)
    assert(noZ.M == 20)
    val noL = initGlobals(CpaConfig(T = 10, M = 4, noL = true), 50, 20, 6)
    assert(noL.T == 50)
    val clamp = initGlobals(CpaConfig(T = 100, M = 40), 50, 20, 6)
    assert(clamp.T == 50 && clamp.M == 20)
  }

  private def freshState() = {
    val cfg = CpaConfig(T = 4, M = 2)
    val g = initGlobals(cfg, I, U, C)
    val phi = initPhi(answers, I, g.T, 1)
    val kappa = initKappa(U, g.M, 1)
    val cand = candidates(answers, I)
    val yhat = initYhat(answers, I, cand)
    val d = derive(g, colSums(phi), phi, yhat.map(_.sum), 1.5)
    (cfg, g, phi, kappa, cand, yhat, d)
  }

  test("derive produces finite expectations and bounded reliability") {
    val (_, _, _, _, _, _, d) = freshState()
    d.elnPi.foreach(v => assert(!v.isNaN && v < 0))
    d.elnTau.foreach(v => assert(!v.isNaN && v < 0))
    d.relW.foreach(v => assert(v >= 0 && v <= 1))
    d.nbar.foreach(v => assert(v > 0))
  }
  test("derive anchors nbar to the mean answer size") {
    val (_, g, phi, _, _, yhat, _) = freshState()
    val d = derive(g, colSums(phi), phi, yhat.map(_.sum), meanAnswerSize = 2.0)
    d.nbar.foreach(v => assert(v >= 0.5 && v <= 2.6 + 1e-9))
  }

  test("kappaRow returns a distribution over communities") {
    val (_, _, phi, _, _, _, d) = freshState()
    val row = kappaRow(answers.filter(_.worker == 0), phi, d)
    assert(math.abs(row.sum - 1.0) < 1e-9)
    row.foreach(v => assert(v >= 0))
  }

  test("accumulate + phiRow yields normalised cluster responsibilities") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65)
    val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    (0 until I).foreach { i =>
      val row = phiRow(i, st.aIt, cand(i), yhat(i), d)
      assert(math.abs(row.sum - 1.0) < 1e-9)
    }
  }

  test("accumulate records one answer per item in nAns") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    assert(st.nAns(0) == 2.0 && st.nAns(1) == 2.0 && st.nAns(2) == 2.0)
  }

  test("accumulate llr entries cover exactly the candidate labels of answered items") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    val expected = (0 until I).flatMap(i => cand(i).map(c => i.toLong * C + c)).toSet
    assert(st.llr.keySet == expected)
  }

  test("a voted label accumulates more llr than an omitted one") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    // item 0: label 1 voted by both workers, label 0 voted by one of two.
    assert(st.llr(0L * C + 1) > st.llr(0L * C + 0))
  }

  test("SuffStats.merge equals accumulating everything in one buffer") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    val whole = emptyStats(4, 2, C, I)
    answers.foreach(a =>
      accumulate(whole, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    val (left, right) = answers.splitAt(3)
    val p1 = emptyStats(4, 2, C, I)
    left.foreach(a =>
      accumulate(p1, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    val p2 = emptyStats(4, 2, C, I)
    right.foreach(a =>
      accumulate(p2, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    val merged = p1.merge(p2)
    whole.lamStat.zip(merged.lamStat).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    whole.aIt.zip(merged.aIt).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    whole.llr.foreach { case (k, v) => assert(math.abs(merged.llr(k) - v) < 1e-12) }
    whole.ansMassM.zip(merged.ansMassM).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
  }

  test("communityCoins stays within its configured bounds") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens0 = Array.fill(2 * C)(0.65); val fp0 = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens0, fp0))
    val (sens, fp) = communityCoins(st, meanAnswerSize = 1.5)
    sens.foreach(v => assert(v >= 0.05 && v <= 0.97))
    fp.foreach(v => assert(v >= 0.01 && v <= 0.60))
  }

  test("inclusionScores are probabilities and favour strongly-voted labels") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d, cand(a.item), yhat(a.item), sens, fp))
    val s = inclusionScores(0, cand(0), phi(0), d, st)
    s.foreach(v => assert(v >= 0 && v <= 1))
    // label 1 (2/2 votes) must beat label 0 (1/2 votes) on item 0
    assert(s(1) > s(0))
  }

  /** ζ0 + scale·Σ_{i∈items} ϕ_it ŷ_ic (Eq 7 target), written out per entry. */
  private def zetaTarget(cfg: CpaConfig, T: Int, items: Seq[Int], scale: Double,
      phi: Array[Array[Double]], cand: Array[Array[Int]], yhat: Array[Array[Double]]) =
    Array.tabulate(T, C) { (t, c) =>
      cfg.zeta0 + scale * items.map { i =>
        val j = cand(i).indexOf(c)
        if (j < 0) 0.0 else phi(i)(t) * yhat(i)(j)
      }.sum
    }

  private def assertClose(a: Array[Double], b: Array[Double], what: String): Unit = {
    assert(a.length == b.length, what)
    a.indices.foreach(k => assert(math.abs(a(k) - b(k)) < 1e-9, s"$what($k): ${a(k)} vs ${b(k)}"))
  }

  test("updateGlobals adds the prior to every lambda/zeta entry") {
    val (cfg, g, phi, kappa, cand, yhat, _) = freshState()
    val lamStat = Array.tabulate(g.T * g.M * C)(k => 0.1 * k)
    lamStat(0) = 2.5
    updateGlobals(g, cfg, 1.0, lamStat, 1.0, Array.range(0, U), kappa, 1.0,
      Array.range(0, I), phi, cand(_), yhat(_), 1.0)
    assert(math.abs(g.lambda(0)(0)(0) - (cfg.lambda0 + 2.5)) < 1e-12)
    g.lambda.foreach(_.foreach(_.foreach(v => assert(v >= cfg.lambda0 - 1e-12))))
    g.zeta.foreach(_.foreach(v => assert(v >= cfg.zeta0 - 1e-12)))
    // ω = 1 with unit scales is the closed-form update of Eq 4-7.
    for (t <- 0 until g.T; m <- 0 until g.M)
      assertClose(g.lambda(t)(m), Array.tabulate(C)(c => cfg.lambda0 + lamStat((t * g.M + m) * C + c)), "lambda")
    val zeta = zetaTarget(cfg, g.T, 0 until I, 1.0, phi, cand, yhat)
    (0 until g.T).foreach(t => assertClose(g.zeta(t), zeta(t), "zeta"))
    val (r1, r2) = updateSticks(colSums(kappa), cfg.alpha)
    assertClose(g.rho1, r1, "rho1"); assertClose(g.rho2, r2, "rho2")
    val (u1, u2) = updateSticks(colSums(phi), cfg.eps)
    assertClose(g.ups1, u1, "ups1"); assertClose(g.ups2, u2, "ups2")
  }

  test("updateGlobals at ω < 1 blends (1-ω)·G + ω·(G0 + scale·S) on every global") {
    val (cfg, g, phi, kappa, cand, yhat, _) = freshState()
    val before = g.copyOf()
    val lamStat = Array.tabulate(g.T * g.M * C)(k => 0.1 * k)
    val omega = 0.5; val ansScale = 3.0; val workerScale = 2.0; val itemScale = 4.0
    val workers = Array(0, 2); val items = Array(2, 1)
    updateGlobals(g, cfg, omega, lamStat, ansScale, workers, kappa, workerScale,
      items, phi, cand(_), yhat(_), itemScale)
    def mix(old: Array[Double], target: Array[Double]) =
      old.indices.map(k => (1 - omega) * old(k) + omega * target(k)).toArray
    for (t <- 0 until g.T; m <- 0 until g.M) {
      val target = Array.tabulate(C)(c => cfg.lambda0 + ansScale * lamStat((t * g.M + m) * C + c))
      assertClose(g.lambda(t)(m), mix(before.lambda(t)(m), target), "lambda")
    }
    val zeta = zetaTarget(cfg, g.T, items.toSeq, itemScale, phi, cand, yhat)
    (0 until g.T).foreach(t => assertClose(g.zeta(t), mix(before.zeta(t), zeta(t)), "zeta"))
    val (r1, r2) = updateSticks(
      Array.tabulate(g.M)(m => workerScale * workers.map(kappa(_)(m)).sum), cfg.alpha)
    assertClose(g.rho1, mix(before.rho1, r1), "rho1"); assertClose(g.rho2, mix(before.rho2, r2), "rho2")
    val (u1, u2) = updateSticks(
      Array.tabulate(g.T)(t => itemScale * items.map(phi(_)(t)).sum), cfg.eps)
    assertClose(g.ups1, mix(before.ups1, u1), "ups1"); assertClose(g.ups2, mix(before.ups2, u2), "ups2")
  }
}

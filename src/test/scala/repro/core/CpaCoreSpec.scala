package repro.core

import org.apache.spark.SparkConf
import org.apache.spark.serializer.{JavaSerializer, KryoSerializer}
import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{Answer, Datasets}
import repro.util.MathFn

class CpaCoreSpec extends AnyFunSuite {
  import CpaCore._

  private val answers = Vector(
    Answer(0, 0, Array(0, 1)), Answer(0, 1, Array(1)),
    Answer(1, 0, Array(2)), Answer(1, 2, Array(2, 3)),
    Answer(2, 1, Array(0)), Answer(2, 2, Array(0, 1)))
  private val I = 3; private val U = 3; private val C = 4

  /** A state with `as` registered, ϕ started from their votes. */
  private def registered(as: Seq[Answer], nItems: Int, cfg: CpaConfig = CpaConfig(T = 4, M = 2),
      nLabels: Int = C): CpaState = {
    val s = new CpaState(cfg, nItems, U, nLabels)
    s.register(as)
    s.startPhi(fromVotes = true)
    s
  }

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
    // The second row repeats entries, whose digamma dirElog reuses: the
    // result keeps the bits of an entry-by-entry evaluation.
    for (p <- Seq(Array(2.0, 3.0, 5.0), Array(0.5, 0.5, 0.5, 2.0, 2.0, 0.5, 3.0))) {
      val e = dirElog(p)
      val ds = MathFn.digamma(p.sum)
      p.indices.foreach(i => assert(e(i) == MathFn.digamma(p(i)) - ds, s"entry $i of ${p.mkString(", ")}"))
    }
  }

  test("updateSticks implements Eq 4/5") {
    val (a, b) = updateSticks(Array(2.0, 3.0, 1.0), conc = 0.5)
    assert(a.sameElements(Array(3.0, 4.0, 2.0)))
    assert(math.abs(b(0) - (0.5 + 4.0)) < 1e-12)
    assert(math.abs(b(1) - (0.5 + 1.0)) < 1e-12)
    assert(math.abs(b(2) - 0.5) < 1e-12)
  }

  test("candidates collects voted labels per item, sorted") {
    val cand = candidates(answers, I)
    assert(cand(0).sameElements(Array(0, 1)))
    assert(cand(1).sameElements(Array(2, 3)))
    assert(cand(2).sameElements(Array(0, 1)))
  }
  test("candidates and union give the sorted distinct label rows of any answers, in any split") {
    val rng = new scala.util.Random(3)
    val nItems = 7
    val as = Vector.fill(60)(Answer(rng.nextInt(nItems), rng.nextInt(5), Array.fill(rng.nextInt(4))(rng.nextInt(9))))
    def reference(part: Seq[Answer]) =
      Array.tabulate(nItems)(i => part.filter(_.item == i).flatMap(_.labels).distinct.sorted.toArray)
    val whole = candidates(as, nItems)
    (0 until nItems).foreach(i => assert(whole(i).sameElements(reference(as)(i)), s"cand($i)"))
    val (left, right) = (candidates(as.take(25), nItems), candidates(as.drop(25), nItems))
    (0 until nItems).foreach { i =>
      val u = union(left(i), right(i))
      assert(u.sameElements(whole(i)), s"union($i)")
      assert(union(u, right(i)) eq u, s"a union that adds nothing returns its first row ($i)")
    }
  }
  test("candidates of an unanswered item is empty") {
    assert(candidates(answers, 4)(3).isEmpty)
  }

  test("initYhat sharpens vote shares around 0.5") {
    val y = registered(answers, I).yhat
    // item 0: label 1 voted 2/2 -> close to 1; label 0 voted 1/2 -> 0.5.
    assert(y(0)(1) > 0.9)
    assert(math.abs(y(0)(0) - 0.5) < 1e-9)
  }

  test("initPhi groups items sharing a dominant label") {
    val s = registered(answers, I)
    val phi = initPhi(s.cand, Array.tabulate(I)(s.votesOf), T = 5, seed = 1)
    phi.foreach { row => assert(math.abs(row.sum - 1.0) < 1e-9) }
    // dominant labels: item 0 -> 1 (two votes), item 1 -> 2, item 2 -> 0;
    // each seeds the slot (topLabel mod T).
    assert(phi(0).indexOf(phi(0).max) == 1)
    assert(phi(1).indexOf(phi(1).max) == 2)
    assert(phi(2).indexOf(phi(2).max) == 0)
  }

  test("initPhi starts an item without votes at its own index") {
    // Item 0 votes label 2 twice and label 1 once; item 1 has an answer
    // without labels; item 2 ties labels 0 and 3 and takes the smaller.
    val phi = initPhi(Array(Array(1, 2), Array.emptyIntArray, Array(0, 3)),
      Array(Array(1, 2), Array.emptyIntArray, Array(1, 1)), T = 4, seed = 1)
    assert(phi.map(r => r.indexOf(r.max)).sameElements(Array(2, 1, 0)))
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
    val s = registered(answers, I, cfg)
    val kappa = initKappa(U, s.g.M, 1)
    (cfg, s.g, s.phi, kappa, s.cand, s.yhat, derive(s.g))
  }

  /** The truth layer of the fresh state over the vote statistics of `st`
    * and the answer counts of all answers.
    */
  private def truthOf(g: Globals, phi: Array[Array[Double]], yhat: Array[Array[Double]],
      st: SuffStats, meanAnswerSize: Double = 1.5): TruthLayer = {
    val (num, den) = CpaStateSpec.nbarScan(phi, yhat, g.T)
    truthLayer(g, num, den, meanAnswerSize, st.llr, registered(answers, I).nAns)
  }

  test("derive produces finite expectations and cluster label distributions") {
    val (_, g, phi, _, _, yhat, d) = freshState()
    d.elnPi.foreach(v => assert(!v.isNaN && v < 0))
    d.elnTau.foreach(v => assert(!v.isNaN && v < 0))
    val tl = truthOf(g, phi, yhat, emptyStats(g.T, g.M, C, I))
    tl.phiHat.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-9 && row.forall(_ > 0)))
    tl.nbar.foreach(v => assert(v > 0))
  }
  test("derive anchors nbar to the mean answer size") {
    val (_, g, phi, _, _, yhat, _) = freshState()
    val tl = truthOf(g, phi, yhat, emptyStats(g.T, g.M, C, I), meanAnswerSize = 2.0)
    tl.nbar.foreach(v => assert(v >= 0.5 && v <= 2.6 + 1e-9))
  }

  test("kappaRow returns a distribution over communities") {
    val (_, _, phi, kappa, _, _, d) = freshState()
    val rows = kappaFromLogits(kappa,
      kappaLogits(answers.iterator.filter(_.worker == 0), U, phi, d.dlam)(d.elnPi.clone()))
    assert(math.abs(rows(0).sum - 1.0) < 1e-9)
    rows(0).foreach(v => assert(v >= 0))
  }
  test("kappaFromLogits shares the row of a worker without answers") {
    val (_, _, phi, kappa, _, _, d) = freshState()
    // Worker 2 has no answers among worker 0's.
    val rows = kappaFromLogits(kappa,
      kappaLogits(answers.iterator.filter(_.worker == 0), U, phi, d.dlam)(d.elnPi.clone()))
    assert((rows(2) eq kappa(2)) && (rows(0) ne kappa(0)))
  }

  test("accumulate + phiRow yields normalised cluster responsibilities") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65)
    val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    (0 until I).foreach { i =>
      val row = phiRow(st.aIt(i), cand(i), yhat(i), d)
      assert(math.abs(row.sum - 1.0) < 1e-9)
    }
  }

  test("answerCounts records one answer per item") {
    assert(registered(answers, I).nAns.sameElements(Array(2.0, 2.0, 2.0)))
  }

  test("accumulate llr entries cover exactly the candidate labels of answered items") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    // One more item than answered: its row must stay unallocated.
    val st = emptyStats(4, 2, C, I + 1)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    assert(st.llr.length == I + 1)
    (0 until I).foreach(i => assert(st.llr(i) != null && st.llr(i).length == cand(i).length, s"llr($i)"))
    assert(st.llr(I) == null)
  }

  test("a voted label accumulates more llr than an omitted one") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    // item 0 (candidates 0, 1): label 1 voted by both workers, label 0 by one of two.
    assert(cand(0).sameElements(Array(0, 1)))
    assert(st.llr(0)(1) > st.llr(0)(0))
  }

  test("SuffStats.merge equals accumulating everything in one buffer") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    def stats(as: Seq[Answer]) = {
      val st = emptyStats(4, 2, C, I)
      as.foreach(a =>
        accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
      st
    }
    val whole = stats(answers)
    // splitAt(3) shares item 1 between the sides; the item split leaves one
    // side without any answer for item 0 (a null llr row on that side).
    for ((left, right) <- Seq(answers.splitAt(3), answers.partition(_.item == 0))) {
      val p1 = stats(left)
      val p2 = stats(right)
      val merged = p1.merge(p2)
      whole.lamStat.zip(merged.lamStat).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
      (0 until I).foreach { i =>
        assert(merged.aIt(i).length == whole.aIt(i).length, s"aIt($i)")
        whole.aIt(i).zip(merged.aIt(i)).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
        assertClose(merged.llr(i), whole.llr(i), s"llr($i)")
      }
      whole.ansMassM.zip(merged.ansMassM).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
    }
    // Merging into a side that never saw item 0 copies the row, not aliases it.
    val q1 = stats(answers.filter(_.item != 0))
    val q2 = stats(answers.filter(_.item == 0))
    assert(q1.llr(0) == null)
    q1.merge(q2)
    assert(q1.llr(0) ne q2.llr(0))
    assertClose(q1.llr(0), q2.llr(0), "llr(0)")
  }

  test("merging per-item a_it rows adds them in partition order and leaves unheld items null") {
    // Floating-point addition is not associative: in partition order item 0
    // sums to (1 + 1e16) − 1e16 = 0, in reverse order to (−1e16 + 1e16) + 1 = 1.
    def part(rows: (Int, Array[Double])*) = {
      val st = emptyStats(1, 1, 1, 3)
      rows.foreach { case (i, r) => st.aIt(i) = r }
      st
    }
    // Fresh buffers for each merge: merging adds into the first one.
    def parts = Seq(part(0 -> Array(1.0), 1 -> Array(2.0)), part(0 -> Array(1e16)), part(0 -> Array(-1e16)))
    val merged = parts.reduceLeft(_ merge _)
    assert(merged.aIt(0).sameElements(Array(0.0)))
    assert(parts.reverse.reduceLeft(_ merge _).aIt(0).sameElements(Array(1.0)))
    assert(merged.aIt(1).sameElements(Array(2.0)) && merged.aIt(2) == null)
    // A row only a later partition holds is copied, not aliased.
    val later = part(1 -> Array(3.0))
    val into = part(0 -> Array(1.0)).merge(later)
    assert(into.aIt(1).sameElements(Array(3.0)) && (into.aIt(1) ne later.aIt(1)))
  }

  test("phiRow of a null a_it row equals phiRow of a zero row bit for bit") {
    val (_, _, _, _, cand, yhat, d) = freshState()
    (0 until I).foreach { i =>
      val zero = phiRow(new Array[Double](d.elnTau.length), cand(i), yhat(i), d)
      val none = phiRow(null, cand(i), yhat(i), d)
      assert(zero.map(java.lang.Double.doubleToRawLongBits).sameElements(
        none.map(java.lang.Double.doubleToRawLongBits)), s"item $i")
    }
  }

  test("merging any two-way split equals the whole, and llr slots are per-(item, label) sums") {
    import org.scalacheck.{Gen, Prop, Test}
    val genAnswers = for {
      nItems <- Gen.choose(1, 4)
      nLabels <- Gen.choose(1, 5)
      n <- Gen.choose(1, 12)
      as <- Gen.listOfN(n, for {
        i <- Gen.choose(0, nItems - 1)
        u <- Gen.choose(0, 2)
        ls <- Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, nLabels - 1))
      } yield Answer(i, u, ls.toArray.sorted))
      split <- Gen.listOfN(n, Gen.oneOf(true, false))
    } yield (nItems, nLabels, as.toVector, split)
    val prop = Prop.forAllNoShrink(genAnswers) { case (nItems, nLabels, as, split) =>
      val cfg = CpaConfig(T = 3, M = 2)
      val s = registered(as, nItems, cfg, nLabels)
      val (g, phi, cand, yhat) = (s.g, s.phi, s.cand, s.yhat)
      val kappa = initKappa(3, g.M, 1)
      val d = derive(g)
      val sens = Array.fill(g.M * nLabels)(0.65); val fp = Array.fill(g.M * nLabels)(0.08)
      def stats(xs: Seq[Answer]) = {
        val st = emptyStats(g.T, g.M, nLabels, nItems)
        xs.foreach(a =>
          accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
        st
      }
      val whole = stats(as)
      val (l, r) = as.zip(split).partition(_._2)
      val merged = stats(l.map(_._1)).merge(stats(r.map(_._1)))
      // κ logits: partial folds of the halves from zero, summed onto E[ln π].
      def logits(xs: Seq[Answer], start: => Array[Double]) =
        kappaLogits(xs.iterator, 3, phi, d.dlam)(start)
      val wholeLogits = logits(as, d.elnPi.clone())
      val halves = Seq(l, r).map(h => logits(h.map(_._1), new Array[Double](g.M)))
      val kappaSplits = (0 until 3).forall { u =>
        val parts = halves.map(_(u)).filter(_ != null)
        if (wholeLogits(u) == null) parts.isEmpty
        else {
          val summed = d.elnPi.clone()
          parts.foreach(addInto(summed, _))
          summed.indices.forall(m => math.abs(summed(m) - wholeLogits(u)(m)) < 1e-12)
        }
      }
      // Naive reference: each answer alone, summed per (item, label).
      val naive = scala.collection.mutable.Map.empty[(Int, Int), Double].withDefaultValue(0.0)
      as.foreach { a =>
        val row = stats(Seq(a)).llr(a.item)
        cand(a.item).indices.foreach(j => naive((a.item, cand(a.item)(j))) += row(j))
      }
      def close(x: Double, y: Double) = math.abs(x - y) < 1e-9
      (0 until nItems).forall { i =>
        val answered = as.exists(_.item == i)
        (if (!answered) whole.llr(i) == null && merged.llr(i) == null &&
          whole.aIt(i) == null && merged.aIt(i) == null
        else whole.llr(i).length == cand(i).length &&
          cand(i).indices.forall(j =>
            close(merged.llr(i)(j), whole.llr(i)(j)) && close(whole.llr(i)(j), naive((i, cand(i)(j))))) &&
          whole.aIt(i).length == g.T && whole.aIt(i).indices.forall(t => close(merged.aIt(i)(t), whole.aIt(i)(t))))
      } && whole.lamStat.indices.forall(k => close(merged.lamStat(k), whole.lamStat(k))) &&
        whole.tpMc.indices.forall(k => close(merged.tpMc(k), whole.tpMc(k)) &&
          close(merged.fpMc(k), whole.fpMc(k)) && close(merged.negAdjMc(k), whole.negAdjMc(k))) &&
        kappaSplits
    }
    val res = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(42L), prop)
    assert(res.passed, res.status.toString)
  }

  test("communityCoins stays within its configured bounds") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens0 = Array.fill(2 * C)(0.65); val fp0 = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens0, fp0))
    val (sens, fp) = communityCoins(st, meanAnswerSize = 1.5)
    sens.foreach(v => assert(v >= 0.05 && v <= 0.97))
    fp.foreach(v => assert(v >= 0.01 && v <= 0.60))
  }

  test("inclusionScores are probabilities and favour strongly-voted labels") {
    val (_, g, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    val s = inclusionScores(0, cand(0), cand(0), phi(0), truthOf(g, phi, yhat, st))
    s.foreach(v => assert(v >= 0 && v <= 1))
    // label 1 (2/2 votes) must beat label 0 (1/2 votes) on item 0
    assert(s(1) > s(0))
  }

  test("inclusionScores of a label outside the candidates is the prior-only score") {
    val (_, g, phi, kappa, cand, yhat, d) = freshState()
    val st = emptyStats(4, 2, C, I)
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    answers.foreach(a =>
      accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    // item 0: candidates {0, 1}; label 3 was voted by nobody.
    val tl = truthOf(g, phi, yhat, st)
    val s = inclusionScores(0, Array(1, 3), cand(0), phi(0), tl)
    def prior(c: Int) = {
      var p0 = 0.0
      for (t <- phi(0).indices) p0 += phi(0)(t) * math.min(0.97, tl.nbar(t) * tl.phiHat(t)(c))
      math.min(0.95, math.max(0.01, p0))
    }
    assert(math.abs(s(1) - prior(3)) < 1e-12) // σ(logit p0) = p0: no vote evidence
    // Candidate label 1 reads its own llr slot (cand(0)(1)); item 0 has
    // fewer answers than EffectiveVoters, so the evidence is unscaled.
    val logOdds = math.log(prior(1) / (1.0 - prior(1))) + st.llr(0)(1)
    assert(math.abs(s(0) - 1.0 / (1.0 + math.exp(-logOdds))) < 1e-12)
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

  private def colSums(m: Array[Array[Double]]): Array[Double] = m.transpose.map(_.sum)

  private def assertClose(a: Array[Double], b: Array[Double], what: String): Unit = {
    assert(a.length == b.length, what)
    a.indices.foreach(k => assert(math.abs(a(k) - b(k)) < 1e-9, s"$what($k): ${a(k)} vs ${b(k)}"))
  }

  test("updateGlobals adds the prior to every lambda/zeta entry") {
    val (cfg, g, phi, kappa, cand, yhat, _) = freshState()
    val lamStat = Array.tabulate(g.T * g.M * C)(k => 0.1 * k)
    lamStat(0) = 2.5
    updateGlobals(g, cfg, 1.0, lamStat, 1.0, Array.range(0, U), kappa, 1.0,
      Array.range(0, I), phi, cand, yhat, 1.0)
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
      items, phi, cand, yhat, itemScale)
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

  test("derive and updateGlobals equal a sequential row loop bit for bit at entity's T×M×C") {
    // entity: 2400 items, 517 workers, 1450 labels; T = 30, M = 12 by default.
    val cfg = CpaConfig()
    val g = initGlobals(cfg, 2400, 517, 1450)
    val (t0, m0, c0) = (g.T, g.M, g.C)
    assert(t0 * m0 * c0 == 30 * 12 * 1450)
    val rng = new scala.util.Random(5)
    val lamStat = Array.fill(t0 * m0 * c0)(if (rng.nextDouble() < 0.9) 0.0 else 10 * rng.nextDouble())
    val omega = 0.3; val ansScale = 1.7
    def raw(rows: Array[Array[Array[Double]]]) =
      rows.map(_.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq).toSeq

    val expected = g.copyOf()
    for (t <- 0 until t0; m <- 0 until m0)
      blend(expected.lambda(t)(m),
        Array.tabulate(c0)(c => cfg.lambda0 + ansScale * lamStat((t * m0 + m) * c0 + c)), omega)
    updateGlobals(g, cfg, omega, lamStat, ansScale, Array.emptyIntArray, Array.empty, 1.0,
      Array.emptyIntArray, Array.empty, Array.empty, Array.empty, 1.0)
    assert(raw(g.lambda) == raw(expected.lambda))

    val d = derive(g)
    assert(raw(d.dlam) == raw(Array.tabulate(t0, m0)((t, m) => dirElog(g.lambda(t)(m)))))
  }

  /** `st` through Spark's Java and Kryo serializers: (serializer, bytes, copy). */
  private def roundTrips(st: SuffStats): Seq[(String, Int, SuffStats)] = {
    val conf = new SparkConf()
    Seq(new JavaSerializer(conf), new KryoSerializer(conf)).map { ser =>
      val inst = ser.newInstance()
      val bytes = inst.serialize(st)
      (ser.getClass.getSimpleName, bytes.remaining(), inst.deserialize[SuffStats](bytes))
    }
  }

  /** Every array of `st` as raw bits (a null row as None), rows counted. */
  private def statBits(st: SuffStats) = {
    def bits(r: Array[Double]) = Option(r).map(_.map(java.lang.Double.doubleToRawLongBits).toSeq)
    (Seq(st.lamStat, st.tpMc, st.fpMc, st.posMassMc, st.negAdjMc, st.ansMassM) ++ st.aIt ++ st.llr).map(bits) :+
      Some(Seq(st.aIt.length.toLong, st.llr.length.toLong))
  }

  test("a SuffStats round trip through Spark's Java and Kryo serializers is bit-identical") {
    val (_, _, phi, kappa, cand, yhat, d) = freshState()
    val sens = Array.fill(2 * C)(0.65); val fp = Array.fill(2 * C)(0.08)
    // Item 1 unanswered: null a_it and llr rows between held items.
    val someItems = emptyStats(4, 2, C, I)
    answers.filter(_.item != 1).foreach(a =>
      accumulate(someItems, a, kappa(a.worker), phi(a.item), d.dlam, cand(a.item), yhat(a.item), sens, fp))
    assert(someItems.aIt(1) == null && someItems.llr(1) == null && someItems.llr(2) != null)
    // A zero λ-stat under rows of either kind alone, empty rows and −0.0, NaN entries.
    val zeroLam = emptyStats(2, 1, 3, 4)
    zeroLam.aIt(0) = Array(1.0, -0.0); zeroLam.llr(1) = Array(0.5); zeroLam.llr(3) = Array.emptyDoubleArray
    val negZero = emptyStats(2, 2, 3, 2)
    negZero.lamStat(1) = -0.0; negZero.lamStat(4) = 2.5; negZero.lamStat(11) = Double.NaN
    negZero.tpMc(0) = -0.0; negZero.aIt(1) = Array(-0.0, 3.0); negZero.llr(1) = Array(-0.0)
    // Every entry set: shipped dense.
    val dense = emptyStats(2, 1, 3, 1)
    java.util.Arrays.fill(dense.lamStat, 1.5); dense.lamStat(2) = -0.0
    for ((what, st) <- Seq("null rows" -> someItems, "no items" -> emptyStats(4, 2, C, I),
        "all-zero λ-stat" -> zeroLam, "−0.0 entries" -> negZero, "dense λ-stat" -> dense,
        "no items, no labels" -> emptyStats(1, 1, 0, 0));
        (ser, _, back) <- roundTrips(st)) {
      assert(statBits(back) == statBits(st), s"$what through $ser")
    }
  }

  test("the Java-serialised statistics of one entity partition are smaller than its dense λ-stat") {
    // The statistics pass of the second VI iteration, after the bootstrap and
    // one step: ϕ and κ rows are then nearly one-hot. (The first pass reads
    // the starting ϕ, whose every entry is set.)
    val ds = Datasets.generate("entity", sf = 0.1)
    val s = new CpaState(CpaConfig(), ds.nItems, ds.nWorkers, ds.nLabels)
    s.register(ds.answers)
    s.startPhi(fromVotes = true)
    val engine = new LocalEngine(ds.answers, 1)
    val (items, workers) = (Array.range(0, ds.nItems), Array.range(0, ds.nWorkers))
    s.globalStep(1.0, engine.bootstrapLambda(s.g.T, s.g.M, s.g.C, s.kappa, s.phi), engine.nAnswers, items, workers)
    s.step(engine, 1.0, items, workers)
    val m = s.toModel(1)
    val g = m.globals
    val st = engine.computeStats(g.T, g.M, g.C, ds.nItems, m.kappa, m.phi, m.cand, m.yhat, derive(g),
      m.sensMc, m.fpMc)
    val dense = 8L * g.T * g.M * g.C
    val (_, javaBytes, back) = roundTrips(st).head
    assert(javaBytes < dense, s"$javaBytes bytes serialised, $dense bytes of dense λ-stat")
    assert(statBits(back) == statBits(st))
  }
}

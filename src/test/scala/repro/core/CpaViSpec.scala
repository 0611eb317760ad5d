package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.MajorityVote
import repro.crowd.CrowdSim.{Config, WorkerMix}
import repro.crowd.{Answer, CrowdSim, Datasets, Metrics, WorkerType}

class CpaViSpec extends AnyFunSuite {
  private lazy val ds = Datasets.generate("image", sf = 0.15)
  private lazy val model = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)

  test("inference terminates within the iteration budget") {
    assert(model.iterations >= 1 && model.iterations <= CpaConfig().maxIter)
  }
  test("fitting is deterministic") {
    val a = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
    val b = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
    (0 until ds.nItems).foreach(i => assert(a.predictItem(i).sameElements(b.predictItem(i))))
  }
  test("cluster responsibilities stay normalised after convergence") {
    model.phi.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-6))
  }
  test("community responsibilities stay normalised after convergence") {
    model.kappa.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-6))
  }
  test("the truth layer holds each item's answer count") {
    val counts = ds.answers.groupBy(_.item).map { case (i, as) => i -> as.size }
    (0 until ds.nItems).foreach(i => assert(model.lastStats.nAns(i) == counts.getOrElse(i, 0), s"nAns($i)"))
  }
  test("soft truth estimates are probabilities") {
    model.yhat.foreach(_.foreach(v => assert(v >= 0 && v <= 1)))
  }
  test("predictions are sorted label sets within the vocabulary") {
    model.predict().values.foreach { ls =>
      assert(ls.toSeq == ls.toSeq.sorted.distinct)
      assert(ls.forall(c => c >= 0 && c < ds.nLabels))
    }
  }
  test("most items receive at least one label") {
    val preds = model.predict()
    val nonEmpty = preds.values.count(_.nonEmpty)
    assert(nonEmpty > 0.85 * ds.nItems, s"$nonEmpty/${ds.nItems}")
  }
  test("beats majority voting on F1 (Table 4 direction)") {
    val mv = Metrics.evaluate(ds, MajorityVote.aggregate(ds.answers))
    val cpa = Metrics.evaluate(ds, model.predict())
    assert(cpa.f1 > mv.f1, s"cpa=$cpa mv=$mv")
  }
  test("beats majority voting on recall via co-occurrence completion") {
    val mv = Metrics.evaluate(ds, MajorityVote.aggregate(ds.answers))
    val cpa = Metrics.evaluate(ds, model.predict())
    assert(cpa.recall > mv.recall)
  }
  test("known true labels are preserved for grounded items") {
    val known = (0 until 20).map(i => i -> ds.truth(i)).toMap
    val m = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig(), known)
    known.foreach { case (i, truth) =>
      val t = truth.toSet
      m.cand(i).zipWithIndex.foreach { case (c, j) =>
        assert(m.yhat(i)(j) == (if (t(c)) 1.0 else 0.0))
      }
    }
  }
  test("grounded items improve accuracy on the rest") {
    val known = (0 until ds.nItems by 4).map(i => i -> ds.truth(i)).toMap
    val m = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig(), known)
    val rest = (0 until ds.nItems).filterNot(known.contains)
    def prOf(mm: CpaModel) = {
      val preds = rest.map(i => i -> mm.predictItem(i)).toMap
      var sp = 0.0; var sr = 0.0
      rest.foreach { i =>
        sp += Metrics.itemPrecision(ds.truth(i), preds(i))
        sr += Metrics.itemRecall(ds.truth(i), preds(i))
      }
      (sp / rest.size, sr / rest.size)
    }
    val (pK, rK) = prOf(m)
    val (p0, r0) = prOf(model)
    // Ground truth supervision should not hurt (allow small noise).
    assert(pK + rK > p0 + r0 - 0.05, s"with=$pK/$rK without=$p0/$r0")
  }
  test("spammer communities are separated from honest communities") {
    // On data with a large spammer population, the dominant community of
    // random spammers must differ from that of reliable workers.
    val cfg = Config(nItems = 300, nLabels = 30, nWorkers = 80, nAnswers = 4000,
      nClusters = 6, labelsPerItem = 3.0, maxLabels = 8, corr = 0.9,
      mix = WorkerMix(0.4, 0.1, 0.1, 0.2, 0.2))
    val d2 = CrowdSim.generate("spam", cfg, 31)
    val m = CpaVi.fit(d2.answers, d2.nItems, d2.nWorkers, d2.nLabels)
    def dominant(t: WorkerType): Int = {
      val us = (0 until d2.nWorkers).filter(u =>
        d2.workerTypes(u) == t && d2.byWorker.contains(u))
      us.map(m.communityOf).groupBy(identity).maxBy(_._2.size)._1
    }
    assert(dominant(WorkerType.Reliable) != dominant(WorkerType.RandomSpammer))
  }
  test("items sharing a truth cluster co-locate in learned clusters") {
    // Purity proxy: for pairs of items with identical truth label sets the
    // learned cluster agreement should beat the random-pair baseline.
    val byTruth = (0 until ds.nItems).groupBy(i => ds.truth(i).toSeq)
    val sameTruthPairs = byTruth.values.filter(_.size > 1).flatMap(g =>
      g.zip(g.tail)).take(300).toSeq
    if (sameTruthPairs.nonEmpty) {
      val agree = sameTruthPairs.count { case (a, b) => model.clusterOf(a) == model.clusterOf(b) }
      val rng = new scala.util.Random(5)
      val randomPairs = (1 to 300).map(_ =>
        (rng.nextInt(ds.nItems), rng.nextInt(ds.nItems)))
      val agreeRandom = randomPairs.count { case (a, b) => model.clusterOf(a) == model.clusterOf(b) }
      assert(agree.toDouble / sameTruthPairs.size > agreeRandom.toDouble / randomPairs.size)
    }
  }
  test("noZ ablation runs and degrades or matches precision") {
    val noZ = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig(noZ = true))
    val pr = Metrics.evaluate(ds, noZ.predict())
    val full = Metrics.evaluate(ds, model.predict())
    assert(pr.precision <= full.precision + 0.05, s"noZ=$pr full=$full")
  }
  test("noL ablation runs on a small-vocabulary dataset") {
    val small = Datasets.generate("movie", sf = 0.2)
    val noL = CpaVi.fit(small.answers, small.nItems, small.nWorkers, small.nLabels,
      CpaConfig(noL = true, maxIter = 10))
    val pr = Metrics.evaluate(small, noL.predict())
    assert(pr.precision > 0.3 && pr.recall > 0.3, s"noL=$pr")
  }
  test("rejects a zero-iteration budget") {
    intercept[IllegalArgumentException] {
      CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig(maxIter = 0))
    }
  }
  test("rejects answers whose labels are unsorted, duplicated or out of range") {
    val good = Vector(Answer(0, 0, Array(0, 2)), Answer(1, 1, Array(1)))
    for (bad <- Seq(Array(2, 0), Array(1, 1), Array(-1, 2), Array(0, 3))) {
      val e = intercept[IllegalArgumentException] {
        CpaVi.fit(good :+ Answer(1, 0, bad), 2, 2, 3, CpaConfig(maxIter = 1))
      }
      assert(e.getMessage.contains("strictly increasing"), e.getMessage)
    }
    CpaVi.fit(good, 2, 2, 3, CpaConfig(maxIter = 1))
  }
  test("rejects answers whose item or worker id is out of range, naming the answer") {
    val good = Vector(Answer(0, 0, Array(0, 2)), Answer(1, 1, Array(1)))
    for (bad <- Seq(Answer(2, 0, Array(0)), Answer(-1, 0, Array(0)), Answer(0, 2, Array(1)),
        Answer(0, -1, Array(1)))) {
      val e = intercept[IllegalArgumentException] {
        CpaVi.fit(good :+ bad, 2, 2, 3, CpaConfig(maxIter = 1))
      }
      assert(e.getMessage.contains(bad.toString), e.getMessage)
    }
  }
  test("fitEngine rejects an engine over other answers than initAnswers") {
    val answers = Vector(Answer(0, 0, Array(0, 2)), Answer(1, 1, Array(1)))
    val e = intercept[IllegalArgumentException] {
      CpaVi.fitEngine(new LocalEngine(answers.tail), answers, 2, 2, 3, CpaConfig(maxIter = 1))
    }
    assert(e.getMessage.contains("holds 1 answers"), e.getMessage)
  }
  test("model exposes argmax accessors within range") {
    (0 until ds.nWorkers).foreach(u =>
      assert(model.communityOf(u) >= 0 && model.communityOf(u) < model.globals.M))
    (0 until ds.nItems).foreach(i =>
      assert(model.clusterOf(i) >= 0 && model.clusterOf(i) < model.globals.T))
  }
  test("unanswered items yield cluster-prior-only predictions without error") {
    // Append two items with no answers.
    val m = CpaVi.fit(ds.answers, ds.nItems + 2, ds.nWorkers, ds.nLabels)
    val p = m.predictItem(ds.nItems + 1)
    assert(p.forall(c => c >= 0 && c < ds.nLabels))
  }
  test("a fit on the answers in another order has the same iterations, predictions, and phi and kappa within 1e-6") {
    // Relabelling items or workers is no such invariant: κ_u starts in
    // community u mod M and the ϕ and λ jitter is drawn in index order.
    import org.scalacheck.{Gen, Prop, Test}
    val genCase = for {
      nItems <- Gen.choose(1, 8)
      nWorkers <- Gen.choose(1, 6)
      nLabels <- Gen.choose(1, 6)
      n <- Gen.choose(0, 30)
      as <- Gen.listOfN(n, for {
        i <- Gen.choose(0, nItems - 1)
        u <- Gen.choose(0, nWorkers - 1)
        ls <- Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, nLabels - 1))
      } yield Answer(i, u, ls.toArray.sorted))
      seed <- Gen.choose(0L, 1000L)
    } yield (nItems, nWorkers, nLabels, as.distinctBy(a => (a.item, a.worker)).toVector, seed)
    def close(a: Array[Array[Double]], b: Array[Array[Double]]) =
      a.indices.forall(k => a(k).indices.forall(j => math.abs(a(k)(j) - b(k)(j)) < 1e-6))
    val cfg = CpaConfig(maxIter = 8)
    val prop = Prop.forAllNoShrink(genCase) { case (nItems, nWorkers, nLabels, as, seed) =>
      val inOrder = CpaVi.fit(as, nItems, nWorkers, nLabels, cfg)
      val shuffled = CpaVi.fit(new scala.util.Random(seed).shuffle(as), nItems, nWorkers, nLabels, cfg)
      shuffled.iterations == inOrder.iterations &&
        (0 until nItems).forall(i => shuffled.predictItem(i).sameElements(inOrder.predictItem(i))) &&
        close(shuffled.phi, inOrder.phi) && close(shuffled.kappa, inOrder.kappa)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(29L), prop)
    assert(res.passed, res.status.toString)
  }
}

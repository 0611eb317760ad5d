package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.MajorityVote
import repro.crowd.{Answer, Datasets, Metrics}

class CpaSviSpec extends AnyFunSuite {
  private lazy val ds = Datasets.generate("image", sf = 0.15)
  private lazy val offline = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
  private lazy val online = CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)

  test("processes the expected number of batches") {
    val batchSize = math.max(1, (ds.answers.size * CpaConfig().batchFraction).toInt)
    val expected = math.ceil(ds.answers.size.toDouble / batchSize).toInt
    assert(online.iterations == expected)
  }
  test("online inference is deterministic in the seed") {
    val a = CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
    val b = CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
    (0 until ds.nItems).foreach(i => assert(a.predictItem(i).sameElements(b.predictItem(i))))
  }
  test("different shuffle seeds change the arrival order but converge similarly") {
    val a = Metrics.evaluate(ds, CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, seed = 1).predict())
    val b = Metrics.evaluate(ds, CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, seed = 2).predict())
    assert(math.abs(a.f1 - b.f1) < 0.1, s"a=$a b=$b")
  }
  test("online accuracy is within a modest gap of offline (Table 5 shape)") {
    val on = Metrics.evaluate(ds, online.predict())
    val off = Metrics.evaluate(ds, offline.predict())
    assert(on.f1 > off.f1 - 0.12, s"online=$on offline=$off")
  }
  test("online still beats majority voting") {
    val on = Metrics.evaluate(ds, online.predict())
    val mv = Metrics.evaluate(ds, MajorityVote.aggregate(ds.answers))
    assert(on.f1 > mv.f1, s"online=$on mv=$mv")
  }
  test("empty batches are ignored") {
    val svi = new CpaSvi(CpaConfig(), ds.nItems, ds.nWorkers, ds.nLabels)
    svi.processBatch(Seq.empty)
    assert(svi.batchesProcessed == 0)
  }
  test("a model snapshot can be taken after every batch (online prediction)") {
    val svi = new CpaSvi(CpaConfig(), ds.nItems, ds.nWorkers, ds.nLabels)
    val batches = ds.answers.grouped(ds.answers.size / 4 + 1).toSeq
    val f1s = batches.map { b =>
      svi.processBatch(b)
      Metrics.evaluate(ds, svi.toModel.predict()).f1
    }
    // Accuracy after all data must exceed accuracy after the first batch
    // (intermediate results improve as answers arrive, §4.1).
    assert(f1s.last > f1s.head, s"f1 trajectory: $f1s")
  }
  test("a snapshot's phi, globals and clusterOf are unchanged by later batches") {
    val svi = new CpaSvi(CpaConfig(), ds.nItems, ds.nWorkers, ds.nLabels)
    val batches = ds.answers.grouped(ds.answers.size / 10 + 1).toSeq
    svi.processBatch(batches.head)
    val snapshot = svi.toModel
    def state(m: CpaModel) = {
      val g = m.globals
      (m.phi.map(_.toSeq).toSeq, g.zeta.map(_.toSeq).toSeq, g.lambda.map(_.map(_.toSeq).toSeq).toSeq,
        Seq(g.rho1, g.rho2, g.ups1, g.ups2, m.sensMc, m.fpMc).map(_.toSeq),
        (0 until m.nItems).map(m.clusterOf))
    }
    val before = state(snapshot)
    batches.tail.foreach(svi.processBatch)
    assert(svi.batchesProcessed == batches.size && batches.size > 1)
    assert(state(snapshot) == before)
  }
  test("an SVI batch updates the globals from the batch's updated phi and yhat") {
    val cfg = CpaConfig()
    val batch = small.answers.take(small.answers.size / 10)
    val svi = new CpaSvi(cfg, small.nItems, small.nWorkers, small.nLabels)
    svi.processBatch(batch)
    val m = svi.toModel
    // After the first batch every item seen is a batch item, so the item
    // scale is 1 and ζ = ζ0 + ω_1·Σ_{i in batch} ϕ_it·ŷ_ic.
    val omega = math.pow(2.0, -cfg.forgetRate)
    val zeta = Array.fill(m.globals.T, small.nLabels)(cfg.zeta0)
    batch.map(_.item).distinct.foreach { i =>
      for (t <- 0 until m.globals.T; j <- m.cand(i).indices)
        zeta(t)(m.cand(i)(j)) += omega * m.phi(i)(t) * m.yhat(i)(j)
    }
    for (t <- 0 until m.globals.T; c <- 0 until small.nLabels)
      assert(math.abs(m.globals.zeta(t)(c) - zeta(t)(c)) < 1e-9, s"zeta($t)($c)")
  }
  test("a second SVI batch scales its zeta and rho statistics up to the items and workers seen") {
    val cfg = CpaConfig()
    val (b1, rest) = small.answers.splitAt(small.answers.size / 10)
    // A small second batch covers only some of the items seen and the workers.
    val b2 = rest.take(20)
    val svi = new CpaSvi(cfg, small.nItems, small.nWorkers, small.nLabels)
    svi.processBatch(b1)
    val first = svi.toModel.globals
    svi.processBatch(b2)
    val m = svi.toModel
    val omega = math.pow(3.0, -cfg.forgetRate)
    def mixed(old: Double, target: Double) = (1 - omega) * old + omega * target
    def assertNear(a: Double, b: Double, what: String) =
      assert(math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b)), s"$what: $a vs $b")
    val items = b2.map(_.item).distinct
    val itemScale = (b1 ++ b2).map(_.item).distinct.size.toDouble / items.size
    assert(itemScale > 1.0)
    val zeta = Array.fill(m.globals.T, small.nLabels)(cfg.zeta0)
    items.foreach { i =>
      for (t <- 0 until m.globals.T; j <- m.cand(i).indices)
        zeta(t)(m.cand(i)(j)) += itemScale * m.phi(i)(t) * m.yhat(i)(j)
    }
    for (t <- 0 until m.globals.T; c <- 0 until small.nLabels)
      assertNear(m.globals.zeta(t)(c), mixed(first.zeta(t)(c), zeta(t)(c)), s"zeta($t)($c)")
    val workers = b2.map(_.worker).distinct
    val workerScale = small.nWorkers.toDouble / workers.size
    assert(workerScale > 1.0)
    val (r1, r2) = CpaCore.updateSticks(
      Array.tabulate(m.globals.M)(k => workerScale * workers.map(m.kappa(_)(k)).sum), cfg.alpha)
    for (k <- 0 until m.globals.M) {
      assertNear(m.globals.rho1(k), mixed(first.rho1(k), r1(k)), s"rho1($k)")
      assertNear(m.globals.rho2(k), mixed(first.rho2(k), r2(k)), s"rho2($k)")
    }
  }
  test("incremental state accumulates answers across batches") {
    val svi = new CpaSvi(CpaConfig(), ds.nItems, ds.nWorkers, ds.nLabels)
    val (b1, b2) = ds.answers.splitAt(ds.answers.size / 2)
    svi.processBatch(b1)
    val partial = svi.toModel
    svi.processBatch(b2)
    val full = svi.toModel
    val candPartial = partial.cand.map(_.length).sum
    val candFull = full.cand.map(_.length).sum
    assert(candFull >= candPartial)
    assert(full.lastStats.nAns.sum > partial.lastStats.nAns.sum)
  }
  test("soft truth estimates remain probabilities after streaming") {
    online.yhat.foreach(_.foreach(v => assert(v >= 0 && v <= 1)))
  }
  test("cluster responsibilities remain normalised after streaming") {
    online.phi.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-6))
  }
  test("globals remain above their priors after streaming") {
    val cfg = CpaConfig()
    online.globals.lambda.foreach(_.foreach(_.foreach(v => assert(v >= cfg.lambda0 - 1e-12))))
    online.globals.zeta.foreach(_.foreach(v => assert(v >= cfg.zeta0 - 1e-12)))
    online.globals.rho1.foreach(v => assert(v >= 1.0 - 1e-9))
    online.globals.rho2.foreach(v => assert(v >= cfg.alpha - 1e-12))
  }

  test("a label voted in a later batch is inserted before an earlier one, keeping its slots") {
    // noZ fixes κ, so worker 2's evidence for label 5 in batch 2 is the same
    // whether or not it also votes label 2.
    val cfg = CpaConfig(noZ = true)
    val batch1 = Seq(Answer(0, 0, Array(5)), Answer(0, 1, Array(5)), Answer(1, 3, Array(1)))
    def run(batch2: Seq[Answer]): (CpaSvi, CpaModel, CpaModel) = {
      val svi = new CpaSvi(cfg, 3, 4, 8)
      svi.processBatch(batch1)
      val first = svi.toModel
      svi.processBatch(batch2)
      (svi, first, svi.toModel)
    }
    val (grown, first, after) = run(Seq(Answer(0, 2, Array(2, 5))))
    val (same, _, ref) = run(Seq(Answer(0, 2, Array(5))))
    assert(after.cand(0).sameElements(Array(2, 5)))
    assert(grown.votesOf(0).sameElements(Array(1, 3)))
    assert(ref.cand(0).sameElements(Array(5)) && same.votesOf(0).sameElements(Array(3)))
    // Label 5's llr moved to slot 1 and kept accumulating there.
    assert(after.lastStats.llr(0).length == 2)
    assert(after.lastStats.llr(0)(1) == ref.lastStats.llr(0)(0))
    assert(after.lastStats.llr(0)(1) != first.lastStats.llr(0)(0))
    // ŷ of label 5 stays the unanimous, near-certain one; label 2 (1 of 3) is lower.
    assert(math.abs(after.yhat(0)(1) - ref.yhat(0)(0)) < math.abs(after.yhat(0)(0) - ref.yhat(0)(0)))
    assert(after.yhat(0)(1) > after.yhat(0)(0))
    // The earlier snapshot is unchanged by the insert.
    assert(first.cand(0).sameElements(Array(5)) && first.lastStats.llr(0).length == 1)
    assert(first.yhat(0).length == 1)
  }
  test("processBatch rejects unsorted, duplicated or out-of-range labels") {
    val svi = new CpaSvi(CpaConfig(), 2, 2, 3)
    for (bad <- Seq(Array(2, 0), Array(1, 1), Array(0, 3)))
      intercept[IllegalArgumentException](svi.processBatch(Seq(Answer(0, 0, bad))))
    assert(svi.batchesProcessed == 0)
  }

  test("processBatch rejects out-of-range item and worker ids before any state changes") {
    val svi = new CpaSvi(CpaConfig(), 2, 2, 3)
    svi.processBatch(Seq(Answer(0, 0, Array(1))))
    for (bad <- Seq(Answer(2, 0, Array(0)), Answer(-1, 0, Array(0)), Answer(0, 2, Array(1)),
        Answer(0, -1, Array(1)))) {
      // The valid answer ahead of the bad one must not be counted either.
      val e = intercept[IllegalArgumentException](svi.processBatch(Seq(Answer(0, 1, Array(1, 2)), bad)))
      assert(e.getMessage.contains(bad.toString), e.getMessage)
      assert(svi.batchesProcessed == 1)
      assert(svi.votesOf(0).sameElements(Array(1)))
    }
  }

  private lazy val small = Datasets.generate("movie", sf = 0.1)
  private def afterOneBatch(cfg: CpaConfig): CpaModel = {
    val svi = new CpaSvi(cfg, small.nItems, small.nWorkers, small.nLabels)
    svi.processBatch(small.answers.take(small.answers.size / 10))
    svi.toModel
  }
  private def oneHotAt(row: Array[Double], k: Int): Boolean =
    row.indices.forall(j => row(j) == (if (j == k) 1.0 else 0.0))

  test("the noL ablation keeps every item in its own cluster") {
    val m = afterOneBatch(CpaConfig(noL = true))
    (0 until small.nItems).foreach(i => assert(oneHotAt(m.phi(i), i), s"phi($i)"))
  }
  test("the noZ ablation keeps every worker in its own community") {
    val m = afterOneBatch(CpaConfig(noZ = true))
    (0 until small.nWorkers).foreach(u => assert(oneHotAt(m.kappa(u), u), s"kappa($u)"))
  }

  /** An SVI fit of `answers` that ends with normalised ϕ and κ rows, ŷ in
    * [0, 1], predicted labels in [0, nLabels), and a truth layer with an llr
    * row (aligned with the candidates) and answer count for exactly the
    * answered items.
    */
  private def saneSviFit(answers: Seq[Answer], nItems: Int, nWorkers: Int, nLabels: Int): CpaModel = {
    val m = CpaSvi.fit(answers, nItems, nWorkers, nLabels)
    m.phi.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-9, row.toSeq))
    m.kappa.foreach(row => assert(math.abs(row.sum - 1.0) < 1e-9, row.toSeq))
    m.yhat.foreach(_.foreach(v => assert(v >= 0 && v <= 1)))
    m.predict().foreach { case (i, ls) => ls.foreach(c => assert(c >= 0 && c < nLabels, s"item $i: $c")) }
    (0 until nItems).foreach { i =>
      val n = answers.count(_.item == i)
      assert(m.lastStats.nAns(i) == n, s"nAns($i)")
      if (n == 0) assert(m.lastStats.llr(i) == null, s"llr($i)")
      else assert(m.lastStats.llr(i).length == m.cand(i).length, s"llr($i)")
    }
    m
  }

  test("SVI on zero answers gives a model without vote statistics") {
    val m = saneSviFit(Seq.empty, 4, 3, 5)
    assert(m.iterations == 0)
  }
  test("SVI on a one-label vocabulary gives a sane model") {
    // Item 9 stays unseen: its llr row stays null.
    val answers = TinyAnswers(10, 5, 1).filter(_.item != 9)
    assert(answers.forall(_.labels.sameElements(Array(0))))
    assert(saneSviFit(answers, 10, 5, 1).lastStats.llr(9) == null)
  }
  test("SVI with more clusters than items gives a sane model") {
    assert(CpaConfig().T > 6)
    val m = saneSviFit(TinyAnswers(6, 8, 7), 6, 8, 7)
    assert(m.globals.T == 6)
  }
  test("a worker with no answers keeps their initial κ row under SVI") {
    val m = saneSviFit(TinyAnswers(12, 6, 5, silent = Set(2)), 12, 6, 5)
    assert(m.kappa(2).sameElements(CpaCore.initKappa(6, m.globals.M, CpaConfig().seed)(2)))
  }
}

package repro.spark

import repro.SparkSpec
import repro.core.{CpaConfig, CpaCore, CpaVi, LocalEngine}
import repro.crowd.{Answer, Datasets, Metrics}

class CpaSparkSpec extends SparkSpec {
  private lazy val ds = Datasets.generate("topic", sf = 0.1)
  private lazy val cfg = CpaConfig(maxIter = 8)
  private lazy val local = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
  private lazy val dist = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)

  test("Spark engine converges in the same number of iterations as local") {
    assert(dist.iterations == local.iterations)
  }
  test("Spark engine produces identical predictions to the local engine") {
    (0 until ds.nItems).foreach { i =>
      assert(dist.predictItem(i).sameElements(local.predictItem(i)), s"item $i")
    }
  }
  test("Spark engine matches local cluster responsibilities") {
    (0 until ds.nItems).foreach { i =>
      local.phi(i).zip(dist.phi(i)).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-6, s"phi($i)")
      }
    }
  }
  test("Spark engine matches local community responsibilities") {
    (0 until ds.nWorkers).foreach { u =>
      local.kappa(u).zip(dist.kappa(u)).foreach { case (a, b) =>
        assert(math.abs(a - b) < 1e-6, s"kappa($u)")
      }
    }
  }
  test("Spark engine matches local community coins") {
    local.sensMc.zip(dist.sensMc).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6) }
    local.fpMc.zip(dist.fpMc).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6) }
  }
  test("distributed groupBy-item prediction equals driver-side prediction") {
    val viaSpark = CpaSpark.predict(spark, dist)
    val viaDriver = dist.predict()
    viaDriver.foreach { case (i, ls) =>
      assert(viaSpark(i).sameElements(ls), s"item $i")
    }
  }
  test("accuracy of the Spark-fitted model is in the expected band") {
    val pr = Metrics.evaluate(ds, CpaSpark.predict(spark, dist))
    assert(pr.precision > 0.4 && pr.recall > 0.3, s"$pr")
  }

  test("SparkEngine.bootstrapLambda equals LocalEngine.bootstrapLambda") {
    val g = CpaCore.initGlobals(cfg, ds.nItems, ds.nWorkers, ds.nLabels)
    val phi = CpaCore.initPhi(ds.answers, ds.nItems, g.T, cfg.seed)
    val kappa = CpaCore.initKappa(ds.nWorkers, g.M, cfg.seed)
    val onDriver = new LocalEngine(ds.answers).bootstrapLambda(g.T, g.M, g.C, kappa, phi)
    val data = AnswerData.toDs(spark, ds.answers).cache()
    try {
      val onSpark = new CpaSpark.SparkEngine(spark, data, ds.answers.size.toLong, 1.0)
        .bootstrapLambda(g.T, g.M, g.C, kappa, phi)
      assert(onSpark.length == onDriver.length)
      onDriver.indices.foreach(k => assert(math.abs(onDriver(k) - onSpark(k)) < 1e-9, s"lambda stat $k"))
    } finally data.unpersist()
  }

  test("a Spark fit on shuffled, duplicated labels equals the local fit on normalised ones") {
    val rng = new scala.util.Random(5)
    val messy = ds.answers.map(a => a.copy(labels = rng.shuffle((a.labels :+ a.labels.head).toSeq).toArray))
    assert(messy.exists(a => !CpaCore.strictlyIncreasing(a.labels)))
    val fromMessy = CpaSpark.fit(spark, messy, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    assert(fromMessy.iterations == local.iterations)
    (0 until ds.nItems).foreach { i =>
      assert(fromMessy.predictItem(i).sameElements(local.predictItem(i)), s"item $i")
      assert(fromMessy.cand(i).sameElements(local.cand(i)), s"cand($i)")
      local.phi(i).zip(fromMessy.phi(i)).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6, s"phi($i)") }
    }
    AnswerData.toDs(spark, messy).collect().foreach(r =>
      assert(CpaCore.strictlyIncreasing(r.labels.toArray), r.toString))
  }
  test("AnswerData round-trips answers through a Dataset") {
    val back = AnswerData.collect(AnswerData.toDs(spark, ds.answers))
    assert(back.size == ds.answers.size)
    val key = (a: Answer) => (a.item, a.worker)
    val orig = ds.answers.map(a => key(a) -> a.labels.toSeq).toMap
    back.foreach(a => assert(orig(key(a)) == a.labels.toSeq))
  }
  test("SparkEngine candidate sets match the local candidate sets") {
    val localCand = repro.core.CpaCore.candidates(ds.answers, ds.nItems)
    assert(local.cand.length == dist.cand.length)
    (0 until ds.nItems).foreach { i =>
      assert(dist.cand(i).sameElements(localCand(i)), s"cand($i)")
    }
  }
  test("truthDf and predictionsDf expose (item, labels) for metric computation") {
    val t = AnswerData.truthDf(spark, ds)
    assert(t.columns.toSeq == Seq("item", "labels"))
    assert(t.count() == ds.nItems)
    val p = AnswerData.predictionsDf(spark, Map(0 -> Array(1, 2)))
    assert(p.columns.toSeq == Seq("item", "labels"))
    assert(p.count() == 1)
  }
  test("Spark-side metric of Spark predictions matches the local metric") {
    val predDf = AnswerData.predictionsDf(spark, CpaSpark.predict(spark, dist))
    val row = Metrics.evaluateDf(spark, AnswerData.truthDf(spark, ds), predDf).collect()(0)
    val pr = Metrics.evaluate(ds, dist.predict())
    assert(math.abs(row.getDouble(0) - pr.precision) < 1e-9)
    assert(math.abs(row.getDouble(1) - pr.recall) < 1e-9)
  }
}

package repro.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.repro.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageSubmitted, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.core.{CpaConfig, CpaCore, CpaModel, CpaState, CpaVi, LocalEngine, TinyAnswers}
import repro.crowd.{Answer, Datasets, Metrics}

class CpaSparkSpec extends SparkSpec {
  private lazy val ds = Datasets.generate("topic", sf = 0.1)
  private lazy val cfg = CpaConfig(maxIter = 8)
  private lazy val local = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
  private lazy val dist = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
  private lazy val localEngine = new LocalEngine(ds.answers)

  /** Run `body` with a Spark engine over the cached answers of `ds`. */
  private def withSparkEngine[A](body: CpaSpark.SparkEngine => A): A = {
    val data = AnswerData.toDs(spark, ds.answers).cache()
    try body(new CpaSpark.SparkEngine(spark, data, ds.answers.size.toLong, localEngine.meanAnswerSize))
    finally { data.unpersist(); () }
  }

  /** The starting state of `CpaVi.fitEngine` on `ds`: every answer
    * registered on the candidates.
    */
  private def startState() = new CpaState(cfg, ds.nItems, ds.nWorkers, ds.nLabels,
    localEngine.candidates(ds.nItems), ds.answers)(CpaCore.initPhi(_, _, _, cfg.seed))

  /** The inputs of the second VI iteration's passes on `ds`: globals
    * bootstrapped as `CpaVi.fitEngine` does, community coins from one
    * statistics pass.
    */
  private lazy val passInputs = {
    val s = startState()
    val (g, phi, kappa, cand, yhat) = (s.g, s.phi, s.kappa, s.cand, s.yhat)
    s.globalStep(1.0, localEngine.bootstrapLambda(g.T, g.M, g.C, kappa, phi), localEngine.nAnswers,
      Array.range(0, ds.nItems), Array.range(0, ds.nWorkers))
    val d = CpaCore.derive(g)
    val first = localEngine.computeStats(g.T, g.M, g.C, ds.nItems, kappa, phi, cand, yhat, d,
      Array.fill(g.M * g.C)(CpaCore.SensStart), Array.fill(g.M * g.C)(CpaCore.FpStart))
    val (sens, fp) = CpaCore.communityCoins(first, s.meanAnswerSize)
    PassInputs(g, phi, kappa, cand, yhat, d, sens, fp)
  }

  private def assertClose(a: Array[Double], b: Array[Double], what: String, tol: Double = 1e-9): Unit = {
    assert(a.length == b.length, s"$what: length ${a.length} vs ${b.length}")
    a.indices.foreach(k => assert(math.abs(a(k) - b(k)) < tol, s"$what($k): ${a(k)} vs ${b(k)}"))
  }

  /** Spark and local fits of the same answers: same iterations and predictions. */
  private def assertSparkFitsLikeLocal(answers: Seq[Answer], nItems: Int, nWorkers: Int,
      nLabels: Int): (CpaModel, CpaModel) = {
    val onDriver = CpaVi.fit(answers, nItems, nWorkers, nLabels, cfg)
    val onSpark = CpaSpark.fit(spark, answers, nItems, nWorkers, nLabels, cfg)
    assert(onSpark.iterations == onDriver.iterations)
    (0 until nItems).foreach { i =>
      assert(onSpark.predictItem(i).sameElements(onDriver.predictItem(i)), s"item $i")
    }
    (onDriver, onSpark)
  }

  test("two Spark fits of the same answers are bit-identical") {
    val again = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    // ϕ, κ, ŷ, ζ, λ per cluster, then the sticks and coins, as raw bits.
    def bits(m: CpaModel) = {
      val g = m.globals
      (Seq(m.phi, m.kappa, m.yhat, g.zeta) ++ g.lambda :+ Array(g.rho1, g.rho2, g.ups1, g.ups2, m.sensMc, m.fpMc))
        .map(_.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq)
    }
    assert(again.iterations == dist.iterations)
    val (a, b) = (bits(again), bits(dist))
    val differing = a.indices.filter(k => a(k) != b(k))
    assert(differing.isEmpty)
  }
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
    val s = startState()
    val (g, phi, kappa) = (s.g, s.phi, s.kappa)
    val onDriver = localEngine.bootstrapLambda(g.T, g.M, g.C, kappa, phi)
    val onSpark = withSparkEngine(_.bootstrapLambda(g.T, g.M, g.C, kappa, phi))
    assertClose(onDriver, onSpark, "lambda stat")
  }

  test("SparkEngine.computeKappa equals LocalEngine.computeKappa, workers split across partitions") {
    val in = passInputs
    val onDriver = localEngine.computeKappa(in.kappa, in.phi, in.d)
    val onSpark = withSparkEngine { engine =>
      // The driver-side sum of partial logits is exercised only when some
      // worker's answers land in more than one partition.
      val partitionsPerWorker = engine.answers
        .mapPartitionsWithIndex((p, it) => it.map(a => (a.worker, p)))
        .distinct().collect().groupBy(_._1).values.map(_.length)
      assert(partitionsPerWorker.max >= 2, "no worker's answers span two partitions")
      engine.computeKappa(in.kappa, in.phi, in.d)
    }
    assert(onSpark.length == onDriver.length)
    onDriver.indices.foreach(u => assertClose(onDriver(u), onSpark(u), s"kappa($u)"))
  }

  test("SparkEngine.computeStats equals LocalEngine.computeStats") {
    val in = passInputs
    val (t, m, c, nItems) = (in.g.T, in.g.M, in.g.C, ds.nItems)
    val onDriver = localEngine.computeStats(t, m, c, nItems, in.kappa, in.phi, in.cand, in.yhat,
      in.d, in.sens, in.fp)
    val onSpark = withSparkEngine(_.computeStats(t, m, c, nItems, in.kappa, in.phi, in.cand,
      in.yhat, in.d, in.sens, in.fp))
    assertClose(onDriver.lamStat, onSpark.lamStat, "lamStat")
    assertClose(onDriver.aIt, onSpark.aIt, "aIt")
    (0 until nItems).foreach { i =>
      assert((onDriver.llr(i) == null) == (onSpark.llr(i) == null), s"llr($i) presence")
      if (onDriver.llr(i) != null) assertClose(onDriver.llr(i), onSpark.llr(i), s"llr($i)")
    }
    assertClose(onDriver.tpMc, onSpark.tpMc, "tpMc")
    assertClose(onDriver.fpMc, onSpark.fpMc, "fpMc")
    assertClose(onDriver.posMassMc, onSpark.posMassMc, "posMassMc")
    assertClose(onDriver.negAdjMc, onSpark.negAdjMc, "negAdjMc")
    assertClose(onDriver.ansMassM, onSpark.ansMassM, "ansMassM")
  }

  test("computeKappa and computeStats each run one job of one stage and write no shuffle") {
    val in = passInputs
    val sc = spark.sparkContext
    val shape = new PassShape
    withSparkEngine { engine =>
      engine.candidates(ds.nItems) // materialises the cached answers
      sc.addSparkListener(shape)
      try {
        def measure(pass: => Any): (Long, Long, Long) = {
          ListenerBusAccess.drain(sc)
          shape.reset()
          pass
          ListenerBusAccess.drain(sc)
          (shape.jobs.get, shape.stages.get, shape.shuffleWriteBytes.get)
        }
        val kappaShape = measure(engine.computeKappa(in.kappa, in.phi, in.d))
        assert(kappaShape == ((1L, 1L, 0L)), "computeKappa (jobs, stages, shuffle bytes)")
        val statsShape = measure(engine.computeStats(in.g.T, in.g.M, in.g.C, ds.nItems,
          in.kappa, in.phi, in.cand, in.yhat, in.d, in.sens, in.fp))
        assert(statsShape == ((1L, 1L, 0L)), "computeStats (jobs, stages, shuffle bytes)")
      } finally sc.removeSparkListener(shape)
    }
  }

  test("a Spark fit on zero answers equals the local fit") {
    assertSparkFitsLikeLocal(Seq.empty, 4, 3, 5)
  }

  test("a Spark fit where an item's only answers have no labels equals the local fit") {
    // Item 1's one answer and one of item 2's carry no label.
    val answers = Seq(Answer(0, 0, Array(1)), Answer(1, 1, Array()), Answer(2, 0, Array(0, 2)),
      Answer(2, 1, Array()))
    val (onDriver, _) = assertSparkFitsLikeLocal(answers, 3, 2, 3)
    assert(onDriver.cand(1).isEmpty && onDriver.lastStats.nAns(1) == 1.0)
  }

  test("a worker with no answers keeps its initial κ row on Spark, as locally") {
    val (onDriver, onSpark) = assertSparkFitsLikeLocal(TinyAnswers(12, 6, 5, silent = Set(2)), 12, 6, 5)
    val initial = CpaCore.initKappa(6, onDriver.globals.M, cfg.seed)(2)
    assert(onDriver.kappa(2).sameElements(initial))
    assert(onSpark.kappa(2).sameElements(initial))
  }

  test("a Spark fit on a one-label vocabulary equals the local fit") {
    val answers = TinyAnswers(10, 5, 1)
    assert(answers.forall(_.labels.sameElements(Array(0))))
    assertSparkFitsLikeLocal(answers, 10, 5, 1)
  }

  test("a Spark fit with more clusters than items equals the local fit") {
    assert(cfg.T > 6)
    assertSparkFitsLikeLocal(TinyAnswers(6, 8, 7), 6, 8, 7)
  }

  test("on random small inputs a Spark fit equals the local fit") {
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
    } yield (nItems, nWorkers, nLabels, as.distinctBy(a => (a.item, a.worker)).toVector)
    def close(a: Array[Array[Double]], b: Array[Array[Double]]) =
      a.length == b.length && a.indices.forall(k =>
        a(k).length == b(k).length && a(k).indices.forall(j => math.abs(a(k)(j) - b(k)(j)) < 1e-6))
    val prop = Prop.forAllNoShrink(genCase) { case (nItems, nWorkers, nLabels, as) =>
      val (onDriver, onSpark) = assertSparkFitsLikeLocal(as, nItems, nWorkers, nLabels)
      close(onSpark.kappa, onDriver.kappa) && close(onSpark.phi, onDriver.phi)
    }
    val res = Test.check(
      Test.Parameters.default.withMinSuccessfulTests(10).withInitialSeed(11L), prop)
    assert(res.passed, res.status.toString)
  }

  test("a Spark fit rejects out-of-range item and worker ids up front") {
    val good = Vector(Answer(0, 0, Array(0, 2)), Answer(1, 1, Array(1)))
    for (bad <- Seq(Answer(2, 0, Array(0)), Answer(-1, 0, Array(0)), Answer(0, 2, Array(1)),
        Answer(0, -1, Array(1)))) {
      val e = intercept[IllegalArgumentException] {
        CpaSpark.fit(spark, good :+ bad, 2, 2, 3, CpaConfig(maxIter = 1))
      }
      assert(e.getMessage.contains(bad.toString), e.getMessage)
    }
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
      assert(CpaCore.strictlyIncreasing(r.labels), r.toString))
  }
  test("AnswerData round-trips answers through a Dataset") {
    val back = AnswerData.toDs(spark, ds.answers).collect()
    assert(back.length == ds.answers.size)
    val orig = ds.answers.map(a => (a.item, a.worker) -> a.labels.toSeq).toMap
    back.foreach(r => assert(orig((r.item, r.worker)) == r.labels.toSeq))
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
    val row = Metrics.evaluateDf(AnswerData.truthDf(spark, ds), predDf).collect()(0)
    val pr = Metrics.evaluate(ds, dist.predict())
    assert(math.abs(row.getDouble(0) - pr.precision) < 1e-9)
    assert(math.abs(row.getDouble(1) - pr.recall) < 1e-9)
  }
}

/** The state one engine pass reads. */
private final case class PassInputs(g: CpaCore.Globals, phi: Array[Array[Double]],
    kappa: Array[Array[Double]], cand: Array[Array[Int]], yhat: Array[Array[Double]],
    d: CpaCore.Derived, sens: Array[Double], fp: Array[Double])

/** Counts the jobs started, stages submitted and shuffle bytes written. */
private final class PassShape extends SparkListener {
  val jobs, stages, shuffleWriteBytes = new AtomicLong

  def reset(): Unit = Seq(jobs, stages, shuffleWriteBytes).foreach(_.set(0))

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = { stages.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (e.taskMetrics != null) {
      shuffleWriteBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten); ()
    }
}

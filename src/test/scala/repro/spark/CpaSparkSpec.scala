package repro.spark

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.repro.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerJobStart,
  SparkListenerStageSubmitted, SparkListenerTaskEnd, SparkListenerUnpersistRDD}
import repro.SparkSpec
import repro.core.{CpaConfig, CpaCore, CpaModel, CpaState, CpaVi, LocalEngine, TinyAnswers}
import repro.crowd.{Answer, CrowdDataset, Datasets, Metrics}

class CpaSparkSpec extends SparkSpec {
  private lazy val ds = Datasets.generate("topic", sf = 0.1)
  private lazy val cfg = CpaConfig(maxIter = 8)
  // The local side of the parity tests is one slice, a sequential fold, so
  // they check Spark's P-partition merge against it whatever P is.
  private lazy val local = fitOneSlice(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)
  private lazy val dist = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
  private lazy val localEngine = new LocalEngine(ds.answers, 1)

  private def fitOneSlice(answers: Seq[Answer], nItems: Int, nWorkers: Int, nLabels: Int): CpaModel =
    CpaVi.fitEngine(new LocalEngine(answers, 1), answers, nItems, nWorkers, nLabels, cfg)

  /** Run `body` with a Spark engine over `answers` (those of `ds` by
    * default), built as `CpaSpark.fit` builds it and closed afterwards, so
    * no spec leaves its answer slices persisted in the shared session.
    */
  private def withSparkEngine[A](body: CpaSpark.SparkEngine => A, answers: Seq[Answer] = ds.answers): A = {
    val engine = new CpaSpark.SparkEngine(spark, AnswerData.toDs(spark, answers), answers.size.toLong,
      CpaCore.meanAnswerSize(answers))
    try body(engine) finally engine.close()
  }

  /** ϕ, κ, ŷ, ζ, λ per cluster, then the sticks and coins, as raw bits. */
  private def bits(m: CpaModel) = {
    val g = m.globals
    (Seq(m.phi, m.kappa, m.yhat, g.zeta) ++ g.lambda :+ Array(g.rho1, g.rho2, g.ups1, g.ups2, m.sensMc, m.fpMc))
      .map(_.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq)
  }

  /** (jobs, stages, shuffle bytes written), the task-result bytes and the
    * broadcast-piece bytes of each of `passes`, run in turn on one Spark
    * engine over `answers`, whose first pass builds the engine's slices.
    */
  private def passShapes(answers: Seq[Answer])(passes: (CpaSpark.SparkEngine => Any)*): Seq[((Long, Long, Long), Long, Long)] = {
    val sc = spark.sparkContext
    val shape = new PassShape
    withSparkEngine({ engine =>
      sc.addSparkListener(shape)
      try passes.map { pass =>
        ListenerBusAccess.drain(sc)
        shape.reset()
        pass(engine)
        ListenerBusAccess.drain(sc)
        ((shape.jobs.get, shape.stages.get, shape.shuffleWriteBytes.get), shape.resultBytes.get,
          shape.broadcastBytes.get)
      } finally sc.removeSparkListener(shape)
    }, answers)
  }

  /** The starting state of `CpaVi.fitEngine` on `data`: every answer
    * registered, ϕ started from their votes.
    */
  private def startState(data: CrowdDataset = ds) = {
    val s = new CpaState(cfg, data.nItems, data.nWorkers, data.nLabels)
    s.register(data.answers)
    s.startPhi(fromVotes = true)
    s
  }

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

  /** The inputs of the third VI iteration's passes on `data`: those of
    * `CpaVi.fitEngine` after two steps of a one-slice local engine, when ϕ
    * and κ rows are nearly one-hot.
    */
  private def laterPassInputs(data: CrowdDataset) = {
    val s = startState(data)
    val engine = new LocalEngine(data.answers, 1)
    val (items, workers) = (Array.range(0, data.nItems), Array.range(0, data.nWorkers))
    s.globalStep(1.0, engine.bootstrapLambda(s.g.T, s.g.M, s.g.C, s.kappa, s.phi), engine.nAnswers,
      items, workers)
    (1 to 2).foreach(_ => s.step(engine, 1.0, items, workers))
    val m = s.toModel(2)
    PassInputs(m.globals, m.phi, m.kappa, m.cand, m.yhat, CpaCore.derive(m.globals), m.sensMc, m.fpMc)
  }

  private def assertClose(a: Array[Double], b: Array[Double], what: String, tol: Double = 1e-9): Unit = {
    assert(a.length == b.length, s"$what: length ${a.length} vs ${b.length}")
    a.indices.foreach(k => assert(math.abs(a(k) - b(k)) < tol, s"$what($k): ${a(k)} vs ${b(k)}"))
  }

  /** Spark and one-slice local fits of the same answers: same iterations and predictions. */
  private def assertSparkFitsLikeLocal(answers: Seq[Answer], nItems: Int, nWorkers: Int,
      nLabels: Int): (CpaModel, CpaModel) = {
    val onDriver = fitOneSlice(answers, nItems, nWorkers, nLabels)
    val onSpark = CpaSpark.fit(spark, answers, nItems, nWorkers, nLabels, cfg)
    assert(onSpark.iterations == onDriver.iterations)
    (0 until nItems).foreach { i =>
      assert(onSpark.predictItem(i).sameElements(onDriver.predictItem(i)), s"item $i")
    }
    (onDriver, onSpark)
  }

  test("two Spark fits of the same answers are bit-identical") {
    val again = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    assert(again.iterations == dist.iterations)
    val (a, b) = (bits(again), bits(dist))
    val differing = a.indices.filter(k => a(k) != b(k))
    assert(differing.isEmpty)
  }
  test("a Spark fit is bit-identical to a local fit over the same contiguous partitions") {
    for ((answers, nItems, nWorkers, nLabels) <- Seq((ds.answers, ds.nItems, ds.nWorkers, ds.nLabels),
        (Vector.empty[Answer], 4, 3, 5))) {
      val P = withSparkEngine(_.answers.getNumPartitions, answers)
      assert(P == math.min(answers.size, spark.sparkContext.defaultParallelism))
      val onSpark = CpaSpark.fit(spark, answers, nItems, nWorkers, nLabels, cfg)
      val sliced = CpaVi.fitEngine(new LocalEngine(answers, P), answers,
        nItems, nWorkers, nLabels, cfg)
      assert(onSpark.iterations == sliced.iterations)
      val (a, b) = (bits(onSpark), bits(sliced))
      val differing = a.indices.filter(k => a(k) != b(k))
      assert(differing.isEmpty, s"$P partitions")
    }
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
    (0 until nItems).foreach { i =>
      assert((onDriver.aIt(i) == null) == (onSpark.aIt(i) == null), s"aIt($i) presence")
      if (onDriver.aIt(i) != null) assertClose(onDriver.aIt(i), onSpark.aIt(i), s"aIt($i)")
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
    val shapes = passShapes(ds.answers)(
      _.candidates(ds.nItems), // materialises the answer slices
      _.computeKappa(in.kappa, in.phi, in.d),
      _.computeStats(in.g.T, in.g.M, in.g.C, ds.nItems, in.kappa, in.phi, in.cand, in.yhat, in.d,
        in.sens, in.fp))
    assert(shapes(1)._1 == ((1L, 1L, 0L)), "computeKappa (jobs, stages, shuffle bytes)")
    assert(shapes(2)._1 == ((1L, 1L, 0L)), "computeStats (jobs, stages, shuffle bytes)")
  }

  test("computeStats ships less than the dense λ-stat of every partition") {
    // entity's 1450 labels make the λ-stat (T·M·C doubles) most of a dense
    // buffer; by the third iteration most of its entries are +0.0.
    val entity = Datasets.generate("entity", sf = 0.05)
    val in = laterPassInputs(entity)
    val shapes = passShapes(entity.answers)(
      _.candidates(entity.nItems),
      _.computeStats(in.g.T, in.g.M, in.g.C, entity.nItems, in.kappa, in.phi, in.cand, in.yhat, in.d,
        in.sens, in.fp))
    assert(shapes(1)._1 == ((1L, 1L, 0L)), "computeStats (jobs, stages, shuffle bytes)")
    // Dense Java serialisation would ship at least the T·M·C doubles of every
    // partition's λ-stat; the packed form ships its set entries.
    val P = withSparkEngine(_.answers.getNumPartitions, entity.answers)
    val dense = P * 8L * in.g.T * in.g.M * in.g.C
    assert(shapes(1)._2 > 0 && shapes(1)._2 < dense,
      s"computeStats shipped ${shapes(1)._2} result bytes from $P partitions, against $dense dense λ-stat bytes")
  }

  test("the candidates pass that fills a fresh cache and the λ bootstrap each run one job of one stage and write no shuffle") {
    val s = startState()
    val shapes = passShapes(ds.answers)(_.candidates(ds.nItems), _.bootstrapLambda(s.g.T, s.g.M, s.g.C, s.kappa, s.phi))
    assert(shapes(0)._1 == ((1L, 1L, 0L)), "candidates on a fresh cache (jobs, stages, shuffle bytes)")
    assert(shapes(1)._1 == ((1L, 1L, 0L)), "bootstrapLambda (jobs, stages, shuffle bytes)")
  }

  test("the first pass stores the answer slices and cuts their lineage, and close releases them") {
    val sc = spark.sparkContext
    val id = withSparkEngine { engine =>
      engine.candidates(ds.nItems)
      val slices = engine.slices
      assert(slices.isCheckpointed)
      // A checkpointed RDD's one dependency is its checkpoint, which has none.
      assert(slices.dependencies.map(_.rdd.dependencies) == Seq(Nil), slices.toDebugString)
      assert(sc.getPersistentRDDs.contains(slices.id))
      val s = startState()
      engine.bootstrapLambda(s.g.T, s.g.M, s.g.C, s.kappa, s.phi)
      assert(engine.slices eq slices, "a later pass built new slices")
      slices.id
    }
    assert(!sc.getPersistentRDDs.contains(id), "close left the slices persisted")
  }

  test("a Spark fit leaves no RDD it persisted") {
    val sc = spark.sparkContext
    val unpersisted = new java.util.concurrent.ConcurrentLinkedQueue[Int]
    val listener = new SparkListener {
      override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = { unpersisted.add(e.rddId); () }
    }
    val before = sc.getPersistentRDDs.keySet.toSet
    sc.addSparkListener(listener)
    try {
      CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig(maxIter = 2))
      ListenerBusAccess.drain(sc)
    } finally sc.removeSparkListener(listener)
    assert(!unpersisted.isEmpty, "the fit unpersisted nothing")
    val left = sc.getPersistentRDDs.keySet.toSet -- before
    assert(left.isEmpty, s"RDDs ${left.mkString(", ")} are still persisted")
  }

  test("a statistics pass after a κ pass on the same Derived broadcasts less than on a fresh Derived") {
    val in = passInputs
    def stats(d: CpaCore.Derived)(engine: CpaSpark.SparkEngine) =
      engine.computeStats(in.g.T, in.g.M, in.g.C, ds.nItems, in.kappa, in.phi, in.cand, in.yhat, d,
        in.sens, in.fp)
    val shapes = passShapes(ds.answers)(
      _.candidates(ds.nItems),
      _.computeKappa(in.kappa, in.phi, in.d),
      stats(in.d),
      stats(CpaCore.derive(in.g)),
      _ => spark.sparkContext.broadcast(CpaCore.derive(in.g)).destroy())
    val (shared, fresh, derived) = (shapes(2)._3, shapes(3)._3, shapes(4)._3)
    // The passes' own inputs and task binaries match to a few bytes, so the
    // fresh pass writes about one more Derived broadcast.
    assert(shared > 0 && derived > 0 && fresh - shared > derived / 2,
      s"statistics pass broadcast $shared bytes on the κ pass's Derived, $fresh on a fresh one; a Derived is $derived")
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
}

/** The state one engine pass reads. */
private final case class PassInputs(g: CpaCore.Globals, phi: Array[Array[Double]],
    kappa: Array[Array[Double]], cand: Array[Array[Int]], yhat: Array[Array[Double]],
    d: CpaCore.Derived, sens: Array[Double], fp: Array[Double])

/** Counts the jobs started, stages submitted, shuffle bytes written,
  * task-result bytes and the stored bytes of the broadcast pieces written
  * (serialised and compressed, as shipped to executors; removals are not
  * counted).
  */
private final class PassShape extends SparkListener {
  val jobs, stages, shuffleWriteBytes, resultBytes, broadcastBytes = new AtomicLong

  def reset(): Unit = Seq(jobs, stages, shuffleWriteBytes, resultBytes, broadcastBytes).foreach(_.set(0))

  override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = { stages.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (e.taskMetrics != null) {
      shuffleWriteBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(e.taskMetrics.resultSize); ()
    }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = {
    val info = e.blockUpdatedInfo
    // A removal reports the removed block's size too, at an invalid storage
    // level, and a destroyed broadcast's removal can land in a later pass.
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece") && info.storageLevel.isValid) {
      broadcastBytes.addAndGet(info.memSize + info.diskSize); ()
    }
  }
}

package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.baselines.MajorityVote
import repro.core.{CpaConfig, CpaModel, CpaSvi, CpaVi, LocalEngine}
import repro.crowd.{Answer, CrowdDataset, Datasets, Metrics}
import repro.spark.{AnswerData, CpaSpark}

import scala.jdk.CollectionConverters._

/** What one pass over a workload's whole input produced.
  *
  * @param unitS     wall seconds of fit + predict per dataset, in input order
  * @param latencyMs per-unit latency: one dataset on the replicas, one
  *                  batch on the stream
  * @param layers    per-layer figures, traced passes only
  */
final case class Pass(
    unitS: Seq[Double],
    latencyMs: Seq[Double],
    quality: Seq[Metrics.PR],
    predictions: Seq[Map[Int, Array[Int]]],
    models: Seq[CpaModel],
    layers: Map[String, Double]) {
  def consensusS: Double = unitS.sum
}

/** Operations checked for correctness; a violated check fails its operation. */
final class Checks {
  var attempted = 0
  var failed = 0
  def op(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; Console.err.println(s"[perfbench] check failed: $what") }
  }
}

/** A benchmark workload: generated inputs, a pass over them through the
  * program's public entry points, and the checks on its outputs.
  */
trait Workload extends AutoCloseable {
  /** Generate the inputs, start what the engine needs and warm it up.
    * Returns the input-generation milliseconds.
    */
  def setup(): Double
  /** Untimed work after set-up, for runtimes whose JIT state keeps changing
    * long after a warm-up that fits in set-up.
    */
  def prime(): Unit = ()
  def pass(tracer: Option[Tracer]): Pass
  /** Checks that need every pass, made after measuring. */
  def check(untraced: Seq[Pass], traced: Seq[Pass], checks: Checks): Unit
  override def close(): Unit = ()
}

object Workload {
  val names: Seq[String] = Seq("replicas-local", "replicas-spark", "large-svi-stream")

  def apply(o: Options): Workload = o.workload match {
    case "replicas-local" => new ReplicasLocal(o)
    case "replicas-spark" => new ReplicasSpark(o)
    case "large-svi-stream" => new SviStream(o)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (one of ${names.mkString(", ")})")
  }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  def gcMs: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  def samePredictions(a: Map[Int, Array[Int]], b: Map[Int, Array[Int]]): Boolean =
    a.size == b.size && a.forall { case (i, ls) => b.get(i).exists(_.sameElements(ls)) }

  /** Per-layer metrics every workload reports; figures a workload's layers
    * never produce are 0.
    */
  val layerZeros: Map[String, Double] =
    (Seq("core.engine.stats_ms", "core.engine.kappa_ms", "core.engine.bootstrap_ms",
      "core.engine.candidates_ms", "core.engine.calls", "core.vi.driver_ms",
      "core.vi.iterations", "core.vi.capped_fits", "core.predict_ms", "core.stats_bytes",
      "spark.jobs_per_iter", "spark.tasks_per_iter", "spark.shuffle_write_bytes_per_iter",
      "spark.result_bytes_per_iter", "spark.broadcast_bytes_per_iter", "spark.task_run_ms",
      "spark.gc_ms", "spark.busy_share", "spark.answer_data_ms", "svi.batches",
      "svi.batch_ms_first_tenth", "svi.batch_ms_last_tenth", "svi.batch_cost_growth",
      "svi.to_model_ms", "svi.candidates_total", "crowd.evaluate_ms", "jvm.gc_ms") ++
      (for {
        m <- Replicas.perReplica
        r <- Replicas.names
      } yield s"$m.$r")).map(_ -> 0.0).toMap
}

object Replicas {
  /** The five Table-3 replicas, in paper order. */
  val names: Seq[String] = Datasets.configs.map(_._1)
  val perReplica: Seq[String] = Seq("core.engine.stats_ms", "core.engine.kappa_ms",
    "core.vi.driver_ms", "core.vi.iterations", "core.stats_bytes")

  /** Scale factor of the replicas (1.0 = paper scale). Spark VI costs
    * 65-85 s per pass over the paper-scale replicas on 4 cores, more than
    * one run's time budget; its cost per iteration hardly depends on the
    * scale, so a quarter scale keeps every replica's vocabulary and shape.
    */
  val Scale = 0.25

  /** Share of the replica scale at which set-up warms the engine up. */
  val WarmUpScale = 0.25

  /** The crowd behind every replica comes from the repository's own seed;
    * the benchmark seed only permutes the order the answers arrive in, which
    * batch VI does not depend on: every seed gives the same fits and the
    * same precision/recall. A crowd drawn from the benchmark seed moves the
    * VI iteration counts (topic: 11 to 25), which spreads `consensus_s`
    * across seeds by 20-28%.
    */
  val CrowdSeed = 42L
}

/** The five replicas fit one after another on the driver thread. Subclasses
  * supply the engine: fit + predict through its public entry points, and the
  * same fit through `CpaVi.fitEngine` with a [[TimedEngine]] when traced.
  */
abstract class Replicas(o: Options) extends Workload {
  protected val cfg: CpaConfig = CpaConfig()
  protected var data: Seq[CrowdDataset] = Nil

  /** The replicas this workload fits, in paper order. */
  protected def replicas: Seq[String] = Replicas.names

  protected def fitPredict(ds: CrowdDataset, c: CpaConfig): (CpaModel, Map[Int, Array[Int]])

  /** A traced fit; returns the model, its fit span and the fit's Spark counts. */
  protected def fitTraced(ds: CrowdDataset, tracer: Tracer): (CpaModel, Span, SparkCounts)

  protected def predict(model: CpaModel): Map[Int, Array[Int]]

  protected def warmUp(): Unit =
    replicas.foreach(n => fitPredict(generate(n, Replicas.WarmUpScale), cfg))

  protected def generate(name: String, share: Double): CrowdDataset = {
    val ds = Datasets.generate(name, Replicas.Scale * o.scale * share, Replicas.CrowdSeed)
    ds.copy(answers = new scala.util.Random(o.seed ^ name.hashCode.toLong).shuffle(ds.answers))
  }

  /** Start (or restart) the engine's runtime. */
  protected def startEngine(): Unit = ()

  protected def cores: Int = 1

  override def setup(): Double = {
    val t0 = System.nanoTime()
    data = replicas.map(generate(_, 1.0))
    val gen = Workload.ms(t0)
    startEngine()
    warmUp()
    gen
  }

  override def pass(tracer: Option[Tracer]): Pass = {
    val gc0 = Workload.gcMs
    val fits = data.map { ds =>
      tracer match {
        case None =>
          val t0 = System.nanoTime()
          val (model, pred) = fitPredict(ds, cfg)
          (model, pred, Workload.ms(t0) / 1e3, Map.empty[String, Double])
        case Some(tr) =>
          val (model, fit, counts) = fitTraced(ds, tr)
          val pred = tr.span(s"core.predict.${ds.name}")(predict(model))
          val predMs = tr.last(s"core.predict.${ds.name}").ms
          (model, pred, (fit.ms + predMs) / 1e3, fitLayers(ds.name, model, fit, predMs, tr, counts))
      }
    }
    val t0 = System.nanoTime()
    val quality = data.zip(fits).map { case (ds, f) => Metrics.evaluate(ds, f._2) }
    val evalMs = Workload.ms(t0)
    val layers = if (tracer.isEmpty) Map.empty[String, Double] else {
      val per = fits.map(_._4)
      def sum(k: String) = per.map(_(k)).sum
      val iters = sum("core.vi.iterations")
      val fitMs = sum("fit_ms")
      val spark = Seq("jobs", "tasks", "shuffle", "result", "broadcast").map(k =>
        k -> (if (iters > 0) sum(s"spark.$k") / iters else 0.0)).toMap
      val summed = Seq("core.engine.stats_ms", "core.engine.kappa_ms", "core.engine.bootstrap_ms",
        "core.engine.candidates_ms", "core.engine.calls", "core.vi.driver_ms",
        "core.vi.iterations", "core.vi.capped_fits", "core.predict_ms",
        "spark.task_run_ms", "spark.gc_ms", "spark.answer_data_ms").map(k => k -> sum(k))
      val perReplica = for {
        (name, f) <- replicas.zip(per)
        m <- Replicas.perReplica
      } yield s"$m.$name" -> f(m)
      Workload.layerZeros ++ summed ++ perReplica ++ Map(
        "core.stats_bytes" -> per.map(_("core.stats_bytes")).max,
        "spark.jobs_per_iter" -> spark("jobs"),
        "spark.tasks_per_iter" -> spark("tasks"),
        "spark.shuffle_write_bytes_per_iter" -> spark("shuffle"),
        "spark.result_bytes_per_iter" -> spark("result"),
        "spark.broadcast_bytes_per_iter" -> spark("broadcast"),
        "spark.busy_share" -> sum("spark.task_run_ms") / (fitMs * cores),
        "crowd.evaluate_ms" -> evalMs,
        "jvm.gc_ms" -> (Workload.gcMs - gc0).toDouble)
    }
    Pass(fits.map(_._3), fits.map(_._3 * 1e3), quality, fits.map(_._2), fits.map(_._1), layers)
  }

  private def fitLayers(name: String, model: CpaModel, fit: Span, predMs: Double,
      tr: Tracer, c: SparkCounts): Map[String, Double] = {
    val kids = tr.children(fit.id)
    def spansMs(ns: Seq[String]) = kids.filter(s => ns.contains(s.name)).map(_.ms).sum
    def engineMs(n: String) = spansMs(Seq(n))
    val answerDataMs = spansMs(ReplicasSpark.AnswerDataSpans)
    Map(
      "fit_ms" -> fit.ms,
      "core.engine.stats_ms" -> engineMs(TimedEngine.Stats),
      "core.engine.kappa_ms" -> engineMs(TimedEngine.Kappa),
      "core.engine.bootstrap_ms" -> engineMs(TimedEngine.Bootstrap),
      "core.engine.candidates_ms" -> engineMs(TimedEngine.Candidates),
      "core.engine.calls" -> kids.count(s => TimedEngine.all.contains(s.name)).toDouble,
      "core.vi.driver_ms" -> (fit.ms - spansMs(TimedEngine.all) - answerDataMs),
      "spark.answer_data_ms" -> answerDataMs,
      "core.vi.iterations" -> model.iterations.toDouble,
      "core.vi.capped_fits" -> (if (model.iterations >= cfg.maxIter) 1.0 else 0.0),
      "core.predict_ms" -> predMs,
      "core.stats_bytes" -> Sizes.kryoBytes(model.lastStats).toDouble,
      "spark.jobs" -> c.jobs.toDouble,
      "spark.tasks" -> c.tasks.toDouble,
      "spark.shuffle" -> c.shuffleWriteBytes.toDouble,
      "spark.result" -> c.resultBytes.toDouble,
      "spark.broadcast" -> c.broadcastBytes.toDouble,
      "spark.task_run_ms" -> c.runMs.toDouble,
      "spark.gc_ms" -> c.gcMs.toDouble)
  }

  override def check(untraced: Seq[Pass], traced: Seq[Pass], checks: Checks): Unit = {
    // Table 4 shape: CPA beats majority vote on F1 on every dataset.
    val mvF1 = data.map(ds => Metrics.evaluate(ds, MajorityVote.aggregate(ds.answers)).f1)
    val first = untraced.head
    (untraced ++ traced).foreach { p =>
      data.indices.foreach { k =>
        val name = data(k).name
        checks.op(p.quality(k).f1 > mvF1(k) &&
          Workload.samePredictions(p.predictions(k), first.predictions(k)),
          f"$name: CPA F1 ${p.quality(k).f1}%.4f vs MV ${mvF1(k)}%.4f, or predictions differ between passes")
      }
    }
    // Every engine pass of a traced fit went through the timed engine:
    // candidates and bootstrap once per fit, then a κ pass (unless noZ) and
    // a stats pass per VI iteration. So the engine spans cover all of the
    // fit's engine work and core.vi.driver_ms holds none of it.
    val perIter = if (cfg.noZ) 1 else 2
    traced.foreach { p =>
      val calls = p.layers("core.engine.calls")
      val expected = 2.0 * data.size + perIter * p.layers("core.vi.iterations")
      checks.op(calls == expected, s"a traced pass made $calls engine calls, expected $expected")
    }
  }
}

/** `replicas-local`: `CpaVi.fit` + `CpaModel.predict` on each replica. */
final class ReplicasLocal(o: Options) extends Replicas(o) {
  override protected def fitPredict(ds: CrowdDataset, c: CpaConfig): (CpaModel, Map[Int, Array[Int]]) = {
    val model = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, c)
    (model, model.predict())
  }

  override protected def fitTraced(ds: CrowdDataset, tr: Tracer): (CpaModel, Span, SparkCounts) = {
    val model = tr.span(s"core.vi.fit.${ds.name}")(CpaVi.fitEngine(
      new TimedEngine(new LocalEngine(ds.answers), tr), ds.answers,
      ds.nItems, ds.nWorkers, ds.nLabels, cfg))
    (model, tr.last(s"core.vi.fit.${ds.name}"), SparkCounts.zero)
  }

  override protected def predict(model: CpaModel): Map[Int, Array[Int]] = model.predict()
}

/** `replicas-spark`: `CpaSpark.fit` + `CpaSpark.predict` on a `local[N]`
  * session; the traced fit wraps a `CpaSpark.SparkEngine` built as
  * `CpaSpark.fit` builds it.
  */
final class ReplicasSpark(o: Options) extends Replicas(o) {
  private var spark: SparkSession = _
  private val counters = new SparkCounters

  /** Spark VI costs 0.3-0.5 s per iteration on 4 cores whatever the input,
    * so a pass over all five replicas (about 90 iterations) takes 27-49 s
    * and a run holds one pass, whose time swings with the host. The largest
    * and the smallest vocabulary (about 26 iterations) give two or three
    * passes per run, and per-replica medians over them.
    */
  override protected def replicas: Seq[String] = Seq("entity", "movie")

  /** Spark's driver code keeps getting faster under the JIT for about a
    * minute of Spark VI (a pass over these replicas drops from 12 s to 7 s
    * on 4 cores); timing starts after PrimeSeconds of passes.
    */
  override def prime(): Unit = {
    val t0 = System.nanoTime()
    while (Workload.ms(t0) < ReplicasSpark.PrimeSeconds * 1e3) data.foreach(fitPredict(_, cfg))
  }

  override protected def cores: Int = o.cores

  override protected def startEngine(): Unit = {
    if (spark != null) spark.stop()
    spark = Sessions.start(o.cores)
    spark.sparkContext.addSparkListener(counters)
  }

  /** Spark VI costs about the same per iteration whatever the input, so a
    * few iterations on one small replica warm its code paths up.
    */
  override protected def warmUp(): Unit =
    fitPredict(generate("movie", Replicas.WarmUpScale), cfg.copy(maxIter = 3))

  override protected def fitPredict(ds: CrowdDataset, c: CpaConfig): (CpaModel, Map[Int, Array[Int]]) = {
    val model = CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, c)
    (model, CpaSpark.predict(spark, model))
  }

  override protected def fitTraced(ds: CrowdDataset, tr: Tracer): (CpaModel, Span, SparkCounts) = {
    val sc = spark.sparkContext
    val before = counters.snapshot(sc)
    val model = tr.span(s"core.vi.fit.${ds.name}") {
      val answers = tr.span(ReplicasSpark.AnswerDataSpan)(AnswerData.toDs(spark, ds.answers).cache())
      try {
        val meanSize = ds.answers.iterator.map(_.labels.length).sum.toDouble / ds.answers.size
        val engine = new CpaSpark.SparkEngine(spark, answers, ds.answers.size.toLong, meanSize)
        CpaVi.fitEngine(new TimedEngine(engine, tr), ds.answers,
          ds.nItems, ds.nWorkers, ds.nLabels, cfg)
      } finally tr.span(ReplicasSpark.UnpersistSpan)(answers.unpersist())
    }
    (model, tr.last(s"core.vi.fit.${ds.name}"), counters.snapshot(sc) - before)
  }

  override protected def predict(model: CpaModel): Map[Int, Array[Int]] =
    CpaSpark.predict(spark, model)

  override def check(untraced: Seq[Pass], traced: Seq[Pass], checks: Checks): Unit = {
    super.check(untraced, traced, checks)
    // Parity with replicas-local at the same seed (what CpaSparkSpec asserts).
    data.indices.foreach { k =>
      val ds = data(k)
      val local = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
      val localPred = local.predict()
      (untraced ++ traced).foreach { p =>
        checks.op(p.models(k).iterations == local.iterations &&
          Workload.samePredictions(p.predictions(k), localPred),
          s"${ds.name}: Spark fit (${p.models(k).iterations} iterations) differs from local VI " +
            s"(${local.iterations} iterations)")
      }
    }
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

/** `large-svi-stream`: `Datasets.largeScale` answers shuffled by the seed and
  * fed to one `CpaSvi` in equal batches, then `toModel.predict()`.
  */
final class SviStream(o: Options) extends Workload {
  private val cfg = CpaConfig()
  private var ds: CrowdDataset = _
  private var batches: Seq[Vector[Answer]] = Nil

  private def generate(scale: Double): (CrowdDataset, Seq[Vector[Answer]]) = {
    val d = Datasets.largeScale(math.max(200, (SviStream.Items * scale).toInt),
      math.max(40, (SviStream.Workers * scale).toInt), SviStream.Labels,
      SviStream.AnswersPerItem, SviStream.CrowdSeed)
    val shuffled = new scala.util.Random(o.seed).shuffle(d.answers)
    val size = math.ceil(shuffled.size.toDouble / SviStream.Batches).toInt
    (d, shuffled.grouped(size).toSeq)
  }

  override def setup(): Double = {
    val t0 = System.nanoTime()
    val (d, b) = generate(o.scale)
    ds = d; batches = b
    val gen = Workload.ms(t0)
    val (wd, wb) = generate(o.scale * SviStream.WarmUpScale)
    stream(wd, wb, None)
    gen
  }

  /** One stream; returns the model, its predictions and per-batch ms. */
  private def stream(d: CrowdDataset, bs: Seq[Vector[Answer]], tr: Option[Tracer])
      : (CpaModel, Map[Int, Array[Int]], Seq[Double], Int) = {
    def span[A](name: String)(body: => A): A = tr.fold(body)(_.span(name)(body))
    val svi = new CpaSvi(cfg, d.nItems, d.nWorkers, d.nLabels)
    val batchMs = bs.map { b =>
      val t0 = System.nanoTime()
      span("svi.process_batch")(svi.processBatch(b))
      Workload.ms(t0)
    }
    val model = span("svi.to_model")(svi.toModel)
    val pred = span("core.predict")(model.predict())
    (model, pred, batchMs, svi.batchesProcessed)
  }

  override def pass(tracer: Option[Tracer]): Pass = {
    val gc0 = Workload.gcMs
    val t0 = System.nanoTime()
    val (model, pred, batchMs, processed) =
      tracer.fold(stream(ds, batches, None))(tr => tr.span("svi.stream")(stream(ds, batches, tracer)))
    val seconds = Workload.ms(t0) / 1e3
    val t1 = System.nanoTime()
    val quality = Metrics.evaluate(ds, pred)
    val evalMs = Workload.ms(t1)
    val layers = tracer.fold(Map.empty[String, Double]) { tr =>
      val tenth = math.max(1, batchMs.size / 10)
      def tenthMs(k: Int) = Stat.median(batchMs.slice(k * tenth, (k + 1) * tenth))
      val last = tenthMs(batchMs.size / tenth - 1)
      Workload.layerZeros ++ Map(
        "core.vi.iterations" -> model.iterations.toDouble,
        "core.predict_ms" -> tr.last("core.predict").ms,
        "core.stats_bytes" -> Sizes.kryoBytes(model.lastStats).toDouble,
        "svi.batches" -> processed.toDouble,
        "svi.batch_ms_first_tenth" -> tenthMs(0),
        "svi.batch_ms_last_tenth" -> last,
        "svi.batch_cost_growth" -> last / tenthMs(1),
        "svi.to_model_ms" -> tr.last("svi.to_model").ms,
        "svi.candidates_total" -> model.cand.map(_.length.toDouble).sum,
        "crowd.evaluate_ms" -> evalMs,
        "jvm.gc_ms" -> (Workload.gcMs - gc0).toDouble)
    }
    Pass(Seq(seconds), batchMs, Seq(quality), Seq(pred), Seq(model), layers)
  }

  override def check(untraced: Seq[Pass], traced: Seq[Pass], checks: Checks): Unit = {
    val first = untraced.head
    (untraced ++ traced).foreach { p =>
      // Every batch must be consumed: one SVI step each.
      val steps = p.models.head.iterations
      (1 to batches.size).foreach(b => checks.op(b <= steps, s"batch $b of ${batches.size} not consumed"))
      checks.op(Workload.samePredictions(p.predictions.head, first.predictions.head),
        "stream predictions differ between passes")
    }
  }
}

object ReplicasSpark {
  val PrimeSeconds = 15
  /** Spans of the AnswerData set-up and tear-down inside a traced Spark fit,
    * reported as `spark.answer_data_ms` and kept out of `core.vi.driver_ms`.
    */
  val AnswerDataSpan = "spark.answer_data"
  val UnpersistSpan = "spark.unpersist"
  val AnswerDataSpans: Seq[String] = Seq(AnswerDataSpan, UnpersistSpan)
}

object SviStream {
  val Items = 20000
  val Workers = 4000
  val Labels = 60
  val AnswersPerItem = 5
  val Batches = 100
  val WarmUpScale = 0.1
  /** The repository's own `largeScale` seed. The benchmark seed orders the
    * stream, and so decides which answers share a batch: unlike batch VI,
    * the SVI result changes with it (slightly).
    */
  val CrowdSeed = 7L
}

object Sessions {
  /** A local Spark session with `cores` worker threads and as many shuffle
    * partitions. The status store keeps only the latest jobs, so the heap
    * it holds does not grow with the number of passes. Scratch files go to
    * the directory named by the `spark.local.dir` system property.
    */
  def start(cores: Int): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("cpa-perfbench")
      .config("spark.ui.enabled", false)
      .config("spark.sql.shuffle.partitions", cores)
      .config("spark.ui.retainedJobs", 50)
      .config("spark.ui.retainedStages", 50)
      .config("spark.sql.ui.retainedExecutions", 50)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CpaConfig, CpaCore, CpaEngine, CpaVi, LocalEngine}
import repro.crowd.Datasets

import scala.jdk.CollectionConverters._

/** Self-tests of the benchmark harness at a tiny scale factor. */
class PerfBenchSpec extends AnyFunSuite {
  private val Tiny = 0.2

  private def run(workload: String, trace: Boolean): Result =
    Bench.run(Options(workload, seed = 3L, seconds = 0, trace = trace, scale = Tiny))

  private lazy val results: Map[(String, Boolean), Result] = (for {
    w <- Workload.names
    t <- Seq(false, true)
  } yield (w, t) -> run(w, t)).toMap

  private def metric(w: String, name: String): Double =
    results((w, true)).metrics.toMap.apply(name).value

  private lazy val spec: JsonNode =
    new ObjectMapper().readTree(new File("..", "BENCHMARK.json"))

  private def declared(section: String): Seq[(String, String)] =
    spec.get(section).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("the timed engine returns the wrapped engine's results unchanged") {
    val kappa = Array(Array(1.0))
    val stats = CpaCore.emptyStats(1, 1, 1, 1)
    val lambda = Array(2.0)
    val cand = Array(Array(0))
    val stub = new CpaEngine {
      def nAnswers = 7L
      def meanAnswerSize = 1.5
      def candidates(nItems: Int) = cand
      def computeKappa(k: Array[Array[Double]], p: Array[Array[Double]], d: CpaCore.Derived) = kappa
      def computeStats(T: Int, M: Int, C: Int, I: Int, k: Array[Array[Double]],
          p: Array[Array[Double]], c: Array[Array[Int]], y: Array[Array[Double]],
          d: CpaCore.Derived, s: Array[Double], f: Array[Double]) = stats
      def bootstrapLambda(T: Int, M: Int, C: Int, k: Array[Array[Double]], p: Array[Array[Double]]) = lambda
    }
    val tracer = new Tracer
    val timed = new TimedEngine(stub, tracer)
    assert(timed.nAnswers == 7L && timed.meanAnswerSize == 1.5)
    assert(timed.candidates(1) eq cand)
    assert(timed.computeKappa(null, null, null) eq kappa)
    assert(timed.computeStats(1, 1, 1, 1, null, null, null, null, null, null, null) eq stats)
    assert(timed.bootstrapLambda(1, 1, 1, null, null) eq lambda)
    assert(tracer.spans.map(_.name) == Seq(TimedEngine.Candidates, TimedEngine.Kappa,
      TimedEngine.Stats, TimedEngine.Bootstrap))
  }

  test("a fit through the timed engine equals CpaVi.fit") {
    val ds = Datasets.generate("topic", 0.05, 42L)
    val cfg = CpaConfig()
    val plain = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    val tracer = new Tracer
    val timed = CpaVi.fitEngine(new TimedEngine(new LocalEngine(ds.answers), tracer),
      ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    assert(timed.iterations == plain.iterations)
    assert(timed.phi.map(_.toSeq).toSeq == plain.phi.map(_.toSeq).toSeq)
    assert(timed.kappa.map(_.toSeq).toSeq == plain.kappa.map(_.toSeq).toSeq)
    assert(Workload.samePredictions(timed.predict(), plain.predict()))
    // bootstrap + candidates once, then one κ and one stats pass per iteration
    assert(tracer.spans.size == 2 + 2 * plain.iterations)
  }

  test("a span's children are the spans opened inside it") {
    val tr = new Tracer
    tr.span("outer") { tr.span("a")(()); tr.span("b")(tr.span("c")(())) }
    assert(tr.children(tr.last("outer").id).map(_.name) == Seq("a", "b"))
    assert(tr.children(tr.last("b").id).map(_.name) == Seq("c"))
  }

  test("options take exactly the four benchmark arguments") {
    val args = Seq("--workload", "replicas-local", "--seed", "5", "--seconds", "2", "--trace", "1")
    assert(Options.parse(args) == Options("replicas-local", 5L, 2.0, trace = true))
    intercept[IllegalArgumentException](Options.parse(args ++ Seq("--scale", "2")))
    intercept[IllegalArgumentException](Options.parse(args.updated(1, "no-such-workload")))
  }

  test("every workload passes its correctness checks") {
    results.foreach { case (k, r) =>
      assert(r.correct && r.failed == 0 && r.attempted > 0, s"$k")
    }
  }

  test("Spark listener counters are non-zero on Spark and zero on local") {
    for (name <- Seq("spark.jobs_per_iter", "spark.tasks_per_iter", "spark.result_bytes_per_iter",
        "spark.broadcast_bytes_per_iter", "spark.shuffle_write_bytes_per_iter",
        "spark.task_run_ms", "spark.busy_share")) {
      assert(metric("replicas-spark", name) > 0, name)
      assert(metric("replicas-local", name) == 0, name)
      assert(metric("large-svi-stream", name) == 0, name)
    }
  }

  test("engine spans and driver time account for the fit") {
    for ((w, fits) <- Seq("replicas-local" -> 5, "replicas-spark" -> 2)) {
      val engine = Seq("stats", "kappa", "bootstrap", "candidates")
        .map(p => metric(w, s"core.engine.${p}_ms")).sum
      assert(engine > 0 && metric(w, "core.vi.driver_ms") > 0, w)
      assert((metric(w, "spark.answer_data_ms") > 0) == (w == "replicas-spark"), w)
      // candidates + bootstrap per fit, then one κ and one stats pass per iteration
      assert(metric(w, "core.engine.calls") == 2 * metric(w, "core.vi.iterations") + 2 * fits, w)
    }
    assert(metric("large-svi-stream", "svi.batches") == SviStream.Batches)
    assert(metric("large-svi-stream", "core.engine.calls") == 0)
  }

  test("every metric named in BENCHMARK.json appears in the output, with its unit") {
    for (w <- Workload.names; (trace, section) <- Seq(false -> "end_to_end", true -> "per_layer")) {
      val printed = results((w, trace)).metrics.map { case (n, m) => n -> m.unit }
      assert(printed.sorted == declared(section).sorted, s"$w $section")
    }
  }

  test("the result line is one JSON object with the four keys") {
    val json = new ObjectMapper().readTree(results(("replicas-local", false)).json)
    assert(json.fieldNames().asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
    assert(json.get("metrics").get("consensus_s").get("value").asDouble > 0)
  }
}

package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable

/** Benchmark options.
  *
  * @param scale scale factor of every generated input (1.0 = benchmark size).
  *              Not a command-line option: the bounds hold at 1.0 only, and
  *              the self-tests set a tiny one directly.
  */
final case class Options(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    scale: Double = 1.0,
    cores: Int = math.min(4, Runtime.getRuntime.availableProcessors()))

object Options {
  def parse(args: Seq[String]): Options = {
    val kv = args.grouped(2).map {
      case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"expected --name value, got ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    if (unknown.nonEmpty)
      throw new IllegalArgumentException(s"unknown option ${unknown.map("--" + _).mkString(", ")}")
    val workload = need("workload")
    if (!Workload.names.contains(workload))
      throw new IllegalArgumentException(
        s"unknown workload '$workload' (one of ${Workload.names.mkString(", ")})")
    Options(
      workload = workload,
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      })
  }
}

final case class Metric(value: Double, unit: String)

/** The run's result; `json` is the line the benchmark ends with. */
final case class Result(attempted: Int, failed: Int, metrics: Seq[(String, Metric)]) {
  def correct: Boolean = failed == 0 && attempted > 0

  def json: String = {
    def num(v: Double) =
      if (v.isWhole && math.abs(v) < 1e15) v.toLong.toString else v.toString
    val ms = metrics.map { case (n, m) => s""""$n": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

object Bench {
  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3

  /** Passes per run at least, so every per-dataset time is a median of two
    * or more, also when one pass takes most of the run's time.
    */
  val MinPasses = 2

  /** Units of the per-layer metrics, by name (before any `.<replica>`). */
  def layerUnit(name: String): String = {
    val base = Replicas.names.foldLeft(name)((n, r) => n.stripSuffix(s".$r"))
    if (base.endsWith("_ms") || base.contains("_ms_")) "ms"
    else if (base.endsWith("_s")) "s"
    else if (base.contains("bytes")) "bytes"
    else if (base.endsWith("_share") || base.endsWith("growth") || base.endsWith("_ratio")) "ratio"
    else "count"
  }

  def run(o: Options): Result = {
    val w = Workload(o)
    try {
      val setupMs = mutable.ArrayBuffer.empty[Double]
      val generateMs = mutable.ArrayBuffer.empty[Double]
      (1 to SetupReps).foreach { _ =>
        val t0 = System.nanoTime()
        generateMs += w.setup()
        setupMs += Workload.ms(t0)
      }
      val tPrime = System.nanoTime()
      w.prime()
      val primeMs = Workload.ms(tPrime)

      // Passes while the next one fits in the run's time (at least
      // MinPasses); traced runs alternate untraced and traced passes so
      // their difference is the tracing overhead.
      val untraced = mutable.ArrayBuffer.empty[Pass]
      val traced = mutable.ArrayBuffer.empty[Pass]
      val start = System.nanoTime()
      var round = 0.0
      while (untraced.size < MinPasses || Workload.ms(start) + round <= o.seconds * 1e3) {
        val t0 = System.nanoTime()
        untraced += w.pass(None)
        if (o.trace) traced += w.pass(Some(new Tracer))
        round = Workload.ms(t0)
      }

      val measureMs = Workload.ms(start)
      val tCheck = System.nanoTime()
      val checks = new Checks
      w.check(untraced.toSeq, traced.toSeq, checks)

      // Consensus time per dataset is the median over passes.
      def consensus(ps: Seq[Pass]) =
        ps.head.unitS.indices.map(k => Stat.median(ps.map(_.unitS(k)))).sum
      val latency = untraced.flatMap(_.latencyMs).toSeq
      val quality = untraced.head.quality
      val untracedS = consensus(untraced.toSeq)
      val tracedS = if (o.trace) consensus(traced.toSeq) else 0.0
      val layers = traced.headOption.map(_.layers.keys.toSeq.sorted.map(k =>
        k -> Stat.median(traced.map(_.layers(k)).toSeq)))
      val untracedPasses = untraced.size
      val passS = untraced.map(_.consensusS).toSeq
      val tracedPasses = traced.size
      // Only the last pass's models stay reachable while the heap is measured.
      val keep = untraced.last
      untraced.clear(); traced.clear()
      val checkMs = Workload.ms(tCheck)
      val heapMb = retainedHeapMb(keep)

      val human = mutable.ArrayBuffer(
        s"workload ${o.workload} seed ${o.seed} scale ${o.scale} cores ${o.cores}",
        f"untraced passes $untracedPasses, consensus $untracedS%.3f s (median per dataset over passes)",
        s"consensus per pass: ${passS.map(x => f"$x%.3f").mkString(" ")} s",
        f"latency samples ${latency.size}, p50 ${Stat.median(latency)}%.2f ms, p90 ${Stat.percentile(latency, 0.9)}%.2f ms",
        s"checks ${checks.attempted} attempted, ${checks.failed} failed",
        f"phases: set-up ${setupMs.sum / 1e3}%.1f s, priming ${primeMs / 1e3}%.1f s, " +
          f"passes ${measureMs / 1e3}%.1f s, checks ${checkMs / 1e3}%.1f s")
      val metrics: Seq[(String, Metric)] =
        if (!o.trace) Seq(
          "setup_s" -> Metric(Stat.median(setupMs.toSeq) / 1e3, "s"),
          "consensus_s" -> Metric(untracedS, "s"),
          "precision" -> Metric(quality.map(_.precision).sum / quality.size, "ratio"),
          "recall" -> Metric(quality.map(_.recall).sum / quality.size, "ratio"),
          "batch_ms_p50" -> Metric(Stat.median(latency), "ms"),
          "batch_ms_p90" -> Metric(Stat.percentile(latency, 0.9), "ms"),
          "retained_heap_mb" -> Metric(heapMb, "MB"))
        else {
          human += f"traced passes $tracedPasses: consensus $tracedS%.3f s traced vs $untracedS%.3f s untraced"
          layers.get.map { case (k, v) => k -> Metric(v, layerUnit(k)) } ++ Seq(
            "crowd.generate_ms" -> Metric(Stat.median(generateMs.toSeq), "ms"),
            "trace.consensus_s" -> Metric(tracedS, "s"),
            "trace.untraced_consensus_s" -> Metric(untracedS, "s"),
            "trace.overhead_s" -> Metric(tracedS - untracedS, "s"))
        }
      human.foreach(println)
      metrics.foreach { case (n, m) => println(f"  $n%-40s ${m.value}%.6g ${m.unit}") }
      Result(checks.attempted, checks.failed, metrics)
    } finally w.close()
  }

  /** Used heap after full collections, with the pass's models reachable.
    * The pauses let Spark's cleaner drop blocks whose owners were collected.
    */
  private def retainedHeapMb(keep: Pass): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (1 to 3).foreach { _ => System.gc(); Thread.sleep(200) }
    val used = mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    java.lang.ref.Reference.reachabilityFence(keep)
    used
  }
}

object Main {
  def main(args: Array[String]): Unit = {
    val o =
      try Options.parse(args.toSeq)
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"perfbench: ${e.getMessage}")
          sys.exit(2)
      }
    val result = Bench.run(o)
    println(result.json)
    Console.out.flush()
    // Spark leaves non-daemon threads behind after stop().
    sys.exit(0)
  }
}

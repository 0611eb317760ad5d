package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.{SparkConf, SparkContext}
import org.apache.spark.perfbench.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerBlockUpdated, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.serializer.KryoSerializer
import repro.core.{CpaCore, CpaEngine}

import scala.collection.mutable

/** One timed interval at a layer boundary; `parent` is the id of the span
  * that caused it (-1 for a root).
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder for the driver thread. Spans are kept until the
  * pass ends and then aggregated into per-layer figures.
  */
final class Tracer {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(id, parent, name, t0, System.nanoTime())
      open = open.tail
    }
  }

  def spans: Seq[Span] = done.toSeq

  /** The most recently closed span with this name. */
  def last(name: String): Span = done.findLast(_.name == name).get

  def children(parent: Int): Seq[Span] = done.filter(_.parent == parent).toSeq
}

/** A [[CpaEngine]] that forwards every call to `inner` unchanged and records
  * one span per data pass. Passed to the public `CpaVi.fitEngine`, it splits
  * a fit into engine time and driver time without touching the program.
  */
final class TimedEngine(inner: CpaEngine, tracer: Tracer) extends CpaEngine {
  override def nAnswers: Long = inner.nAnswers
  override def meanAnswerSize: Double = inner.meanAnswerSize

  override def candidates(nItems: Int): Array[Array[Int]] =
    tracer.span(TimedEngine.Candidates)(inner.candidates(nItems))

  override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]] =
    tracer.span(TimedEngine.Kappa)(inner.computeKappa(kappa, phi, d))

  override def computeStats(T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]],
      cand: Array[Array[Int]], yhat: Array[Array[Double]],
      d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats =
    tracer.span(TimedEngine.Stats)(
      inner.computeStats(T, M, C, I, kappa, phi, cand, yhat, d, sensMc, fpMc))

  override def bootstrapLambda(T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] =
    tracer.span(TimedEngine.Bootstrap)(inner.bootstrapLambda(T, M, C, kappa, phi))
}

object TimedEngine {
  val Bootstrap = "core.engine.bootstrap"
  val Candidates = "core.engine.candidates"
  val Kappa = "core.engine.kappa"
  val Stats = "core.engine.stats"
  val all: Seq[String] = Seq(Bootstrap, Candidates, Kappa, Stats)
}

/** Spark work counted from listener events. */
final case class SparkCounts(jobs: Long, tasks: Long, runMs: Long, gcMs: Long,
    shuffleWriteBytes: Long, resultBytes: Long, broadcastBytes: Long) {
  def -(o: SparkCounts): SparkCounts = SparkCounts(jobs - o.jobs, tasks - o.tasks,
    runMs - o.runMs, gcMs - o.gcMs, shuffleWriteBytes - o.shuffleWriteBytes,
    resultBytes - o.resultBytes, broadcastBytes - o.broadcastBytes)
}

object SparkCounts {
  val zero: SparkCounts = SparkCounts(0, 0, 0, 0, 0, 0, 0)
}

/** Listener registered by the benchmark: jobs, tasks, executor run and GC
  * time, shuffle-write and task-result bytes, and the stored size of every
  * broadcast piece (serialized and compressed, as shipped to executors).
  */
final class SparkCounters extends SparkListener {
  private val jobs, tasks, runMs, gcMs, shuffle, result, broadcast = new AtomicLong

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffle.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      result.addAndGet(m.resultSize)
    }
  }

  override def onBlockUpdated(e: SparkListenerBlockUpdated): Unit = {
    val info = e.blockUpdatedInfo
    if (info.blockId.isBroadcast && info.blockId.name.contains("_piece"))
      broadcast.addAndGet(info.memSize + info.diskSize)
  }

  /** Counters after every event posted so far has been delivered. */
  def snapshot(sc: SparkContext): SparkCounts = {
    ListenerBusAccess.drain(sc)
    SparkCounts(jobs.get, tasks.get, runMs.get, gcMs.get, shuffle.get, result.get, broadcast.get)
  }
}

object Sizes {
  private lazy val kryo = new KryoSerializer(new SparkConf()).newInstance()

  /** Kryo-serialized size of one value, as the Spark engine's REDUCE ships it. */
  def kryoBytes(x: AnyRef): Long = kryo.serialize(x).remaining().toLong
}

object Stat {
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear interpolation between order statistics. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
}

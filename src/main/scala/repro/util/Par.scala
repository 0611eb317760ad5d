package repro.util

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

/** Minimal fixed-pool parallel loop for CPU-bound driver-local kernels
  * (scala-parallel-collections is not shipped with Scala 2.13 core and no
  * extra artifacts resolve offline). Work is split into contiguous index
  * ranges. The result equals a sequential loop's bit for bit only when the
  * body writes disjoint per-index state and reads none that another index
  * writes; then neither the split nor the thread schedule can move it.
  *
  * The pool has one thread per core, since the caller only blocks in
  * `invokeAll`. A `foreachRange` called from a pool thread runs its body
  * inline instead of queueing behind itself, so nesting cannot deadlock.
  * The slice kernels of a [[repro.core.LocalEngine]] run on the pool, so
  * they must not call `Par`: such a call gains no thread.
  */
object Par {
  private final class PoolThread(r: Runnable) extends Thread(r, "repro-par")

  private val Cores = math.max(1, Runtime.getRuntime.availableProcessors)

  private lazy val pool = Executors.newFixedThreadPool(Cores,
    (r: Runnable) => { val t = new PoolThread(r); t.setDaemon(true); t })

  /** Elements below which a row loop ([[foreachRow]]) runs inline. Waking
    * the pool for a few hundred microseconds of work costs more than it
    * saves: with the pool, the SVI batches of `large-svi-stream` (T·M·C =
    * 21.6k) ran 15% slower at the 90th percentile on a 4-core host. Inline
    * or not, the bits are the same.
    */
  val MinGrain: Int = 1 << 15

  /** `body(i)` for i in [lo, hi), in order. */
  private def run(lo: Int, hi: Int, body: Int => Unit): Unit = {
    var i = lo
    while (i < hi) { body(i); i += 1 }
  }

  /** `body(r)` for each of `n` rows of `width` elements: inline when the
    * rows hold fewer than [[MinGrain]] elements in all, else [[foreachRange]].
    */
  def foreachRow(n: Int, width: Int)(body: Int => Unit): Unit =
    if (n.toLong * width < MinGrain) run(0, n, body) else foreachRange(n)(body)

  /** Run `body(i)` for i in [0, n) across the pool; blocks until done. */
  def foreachRange(n: Int)(body: Int => Unit): Unit =
    if (n == 1 || Thread.currentThread.isInstanceOf[PoolThread]) run(0, n, body)
    else if (n > 1) {
      val chunks = math.min(n, Cores * 4)
      val step = (n + chunks - 1) / chunks
      val tasks = (0 until n by step).map { lo =>
        new Callable[Unit] { def call(): Unit = run(lo, math.min(n, lo + step), body) }
      }
      pool.invokeAll(tasks.asJava).asScala.foreach(_.get())
    }
}

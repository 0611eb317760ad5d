package repro.util

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.scalatest.funsuite.AnyFunSuite

import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration._
import scala.concurrent.{Await, Future}

class ParSpec extends AnyFunSuite {
  test("foreachRange visits every index exactly once") {
    val hits = new Array[java.util.concurrent.atomic.AtomicInteger](1000)
    (0 until 1000).foreach(i => hits(i) = new java.util.concurrent.atomic.AtomicInteger())
    Par.foreachRange(1000) { i => hits(i).incrementAndGet(); () }
    assert(hits.forall(_.get == 1))
  }
  test("foreachRange with n = 0 is a no-op") {
    var called = false
    Par.foreachRange(0)(_ => called = true)
    assert(!called)
  }
  test("foreachRange with n = 1 runs the single index") {
    var seen = -1
    Par.foreachRange(1)(i => seen = i)
    assert(seen == 0)
  }
  test("foreachRange supports disjoint writes to a shared array") {
    val out = new Array[Double](10000)
    Par.foreachRange(10000)(i => out(i) = i * 2.0)
    assert((0 until 10000).forall(i => out(i) == i * 2.0))
  }
  test("foreachRange propagates exceptions from the body") {
    intercept[Exception] {
      Par.foreachRange(100)(i => if (i == 57) throw new IllegalStateException("boom"))
    }
  }
  test("foreachRange handles n smaller than the chunk count") {
    val hits = new java.util.concurrent.atomic.AtomicInteger()
    Par.foreachRange(3) { _ => hits.incrementAndGet(); () }
    assert(hits.get == 3)
  }
  test("foreachRange runs one body per core at once") {
    val n = Runtime.getRuntime.availableProcessors
    val latch = new CountDownLatch(n)
    val released = new AtomicInteger()
    // Each body waits until all n have started: that can only happen if all run at once.
    Par.foreachRange(n) { _ =>
      latch.countDown()
      if (latch.await(30, TimeUnit.SECONDS)) { released.incrementAndGet(); () }
    }
    assert(released.get == n)
  }
  test("a nested foreachRange completes and visits every index once") {
    val n = 4 * Runtime.getRuntime.availableProcessors + 3
    val hits = Array.fill(n * n)(new AtomicInteger())
    val run = Future(Par.foreachRange(n)(i => Par.foreachRange(n) { j => hits(i * n + j).incrementAndGet(); () }))
    Await.result(run, 60.seconds)
    assert(hits.forall(_.get == 1))
  }
  test("foreachRow runs rows under MinGrain elements on the calling thread, larger ones on the pool") {
    val caller = Thread.currentThread
    def threads(n: Int, width: Int) = {
      val seen = new Array[Thread](n)
      Par.foreachRow(n, width)(r => seen(r) = Thread.currentThread)
      seen.toSet
    }
    // SVI's λ: T·M = 360 rows of C = 60 labels; entity's: 360 rows of 1450.
    assert(360 * 60 < Par.MinGrain && threads(360, 60) == Set(caller))
    assert(360 * 1450 >= Par.MinGrain && !threads(360, 1450).contains(caller))
  }
}

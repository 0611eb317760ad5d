package repro.util

import org.scalatest.funsuite.AnyFunSuite

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
}

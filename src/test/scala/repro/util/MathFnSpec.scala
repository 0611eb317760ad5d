package repro.util

import org.scalatest.funsuite.AnyFunSuite
import repro.util.MathFn._

class MathFnSpec extends AnyFunSuite {
  private val eps = 1e-9
  // Deterministic property loop (scalatestplus is not available offline;
  // scalacheck generators are exercised via explicit seeded sampling).
  private def forSamples(lo: Double, hi: Double, n: Int = 200)(body: Double => org.scalatest.Assertion): Unit = {
    val rng = new scala.util.Random(7)
    (1 to n).foreach(_ => body(lo + rng.nextDouble() * (hi - lo)))
  }

  test("digamma(1) = -Euler-Mascheroni") {
    assert(math.abs(digamma(1.0) - (-0.57721566490153286)) < eps)
  }
  test("digamma(0.5) = -gamma - 2 ln 2") {
    assert(math.abs(digamma(0.5) - (-1.9635100260214235)) < eps)
  }
  test("digamma(2) = 1 - gamma") {
    assert(math.abs(digamma(2.0) - 0.42278433509846714) < eps)
  }
  test("digamma(10) reference value") {
    assert(math.abs(digamma(10.0) - 2.2517525890667214) < eps)
  }
  test("digamma rejects non-positive arguments") {
    intercept[IllegalArgumentException](digamma(0.0))
    intercept[IllegalArgumentException](digamma(-1.5))
  }
  test("digamma satisfies the recurrence psi(x+1) = psi(x) + 1/x") {
    forSamples(0.05, 50.0) { x =>
      assert(math.abs(digamma(x + 1) - digamma(x) - 1.0 / x) < 1e-8)
    }
  }
  test("digamma is increasing on the positive axis") {
    forSamples(0.1, 40.0) { x =>
      assert(digamma(x + 0.5) > digamma(x))
    }
  }

  test("logGamma at integers matches ln factorial") {
    var fact = 1.0
    for (n <- 1 to 12) {
      assert(math.abs(logGamma(n.toDouble) - math.log(fact)) < 1e-8, s"n=$n")
      fact *= n
    }
  }
  test("logGamma(0.5) = ln sqrt(pi)") {
    assert(math.abs(logGamma(0.5) - 0.5 * math.log(math.Pi)) < 1e-9)
  }
  test("logGamma satisfies the recurrence lgamma(x+1) = lgamma(x) + ln x") {
    forSamples(0.1, 30.0) { x =>
      assert(math.abs(logGamma(x + 1) - logGamma(x) - math.log(x)) < 1e-7)
    }
  }

  test("logSumExp of empty array is -infinity") {
    assert(logSumExp(Array.empty[Double]).isNegInfinity)
  }
  test("logSumExp of a singleton is the element") {
    assert(math.abs(logSumExp(Array(3.25)) - 3.25) < eps)
  }
  test("logSumExp matches direct computation on small values") {
    val v = Array(0.1, -1.0, 2.0)
    assert(math.abs(logSumExp(v) - math.log(v.map(math.exp).sum)) < eps)
  }
  test("logSumExp is stable for large magnitudes") {
    val v = Array(1000.0, 1000.0)
    assert(math.abs(logSumExp(v) - (1000.0 + math.log(2.0))) < 1e-9)
    assert(!logSumExp(Array(-1e6, -1e6)).isNaN)
  }
  test("logSumExp is at least the max") {
    val rng = new scala.util.Random(11)
    (1 to 200).foreach { _ =>
      val xs = Array.fill(1 + rng.nextInt(8))(rng.nextDouble() * 100 - 50)
      assert(logSumExp(xs) >= xs.max - 1e-12)
    }
  }

  test("softmaxInPlace sums to one and preserves order") {
    val v = softmaxInPlace(Array(1.0, 3.0, 2.0))
    assert(math.abs(v.sum - 1.0) < eps)
    assert(v(1) > v(2) && v(2) > v(0))
  }
  test("softmaxInPlace is shift-invariant") {
    val a = softmaxInPlace(Array(1.0, 2.0, 3.0))
    val b = softmaxInPlace(Array(101.0, 102.0, 103.0))
    a.zip(b).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("normalise produces a distribution") {
    val v = normalise(Array(2.0, 6.0))
    assert(math.abs(v(0) - 0.25) < eps && math.abs(v(1) - 0.75) < eps)
  }
  test("normalise of an all-zero vector is uniform") {
    val v = normalise(Array(0.0, 0.0, 0.0, 0.0))
    assert(v.forall(x => math.abs(x - 0.25) < eps))
  }
  test("normalise does not mutate its input") {
    val in = Array(1.0, 1.0)
    normalise(in)
    assert(in sameElements Array(1.0, 1.0))
  }

  test("dot computes the inner product") {
    assert(math.abs(dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)) - 32.0) < eps)
  }
  test("dot rejects mismatched lengths") {
    intercept[IllegalArgumentException](dot(Array(1.0), Array(1.0, 2.0)))
  }
}

package repro.tools

import org.scalatest.Assertion
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CpaConfig, CpaVi, TinyAnswers}

class FitDigestSpec extends AnyFunSuite {

  test("two digests of one fit agree and flipping one bit of any array changes the state digest") {
    val m = CpaVi.fit(TinyAnswers(12, 6, 5), 12, 6, 5, CpaConfig(maxIter = 3))
    val digest = FitDigest.stateHash(m)
    assert(FitDigest.stateHash(m) == digest)
    assert(FitDigest.predictionsHash(m) == FitDigest.predictionsHash(m))
    def flipped(row: Array[Double]): Assertion = {
      val x = row(0)
      row(0) = java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(x) ^ 1L)
      assert(FitDigest.stateHash(m) != digest)
      row(0) = x
      assert(FitDigest.stateHash(m) == digest)
    }
    val g = m.globals
    Seq(m.phi(0), m.kappa(0), m.yhat(0), g.lambda(0)(0), g.zeta(0), g.rho1, g.rho2, g.ups1, g.ups2,
      m.sensMc, m.fpMc, m.lastStats.phiHat(0), m.lastStats.nbar, m.lastStats.llr(0), m.lastStats.nAns)
      .foreach(flipped)
    m.cand(0)(0) ^= 1
    assert(FitDigest.stateHash(m) != digest)
  }
}

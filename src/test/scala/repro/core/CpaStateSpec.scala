package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.Answer

class CpaStateSpec extends AnyFunSuite {

  test("registering answers in random batches and order equals registering them at once on their candidates") {
    val genCase = for {
      nItems <- Gen.choose(1, 6)
      nLabels <- Gen.choose(1, 6)
      n <- Gen.choose(0, 25)
      as <- Gen.listOfN(n, for {
        i <- Gen.choose(0, nItems - 1)
        u <- Gen.choose(0, 3)
        // Empty label sets too: an item may have answers but no votes.
        ls <- Gen.containerOf[Set, Int](Gen.choose(0, nLabels - 1))
      } yield Answer(i, u, ls.toArray.sorted))
      seed <- Gen.choose(0L, 1000L)
    } yield (nItems, nLabels, as.toVector, seed)
    val prop = Prop.forAllNoShrink(genCase) { case (nItems, nLabels, as, seed) =>
      val cfg = CpaConfig(T = 3, M = 2)
      def state(cand: Array[Array[Int]], initial: Seq[Answer]) =
        new CpaState(cfg, nItems, 4, nLabels, cand, initial)(CpaCore.initPhi(_, _, _, cfg.seed))
      val whole = state(CpaCore.candidates(as, nItems), as)
      val grown = state(Array.fill(nItems)(Array.emptyIntArray), Nil)
      val rng = new scala.util.Random(seed)
      var rest = rng.shuffle(as)
      while (rest.nonEmpty) {
        val (batch, more) = rest.splitAt(1 + rng.nextInt(rest.size))
        val items = grown.register(batch)
        assert(items.sameElements(batch.map(_.item).distinct))
        rest = more
      }
      (0 until nItems).forall { i =>
        val answered = as.exists(_.item == i)
        Seq(whole, grown).forall(s =>
          if (answered) s.llr(i).length == s.cand(i).length && s.yhat(i).forall(!_.isNaN)
          else s.llr(i) == null) &&
          grown.cand(i).sameElements(whole.cand(i)) &&
          grown.votesOf(i).sameElements(whole.votesOf(i)) &&
          grown.nAns(i) == whole.nAns(i)
      } && grown.itemsSeen == whole.itemsSeen && grown.answersSeen == whole.answersSeen &&
        grown.meanAnswerSize == whole.meanAnswerSize
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(23L), prop)
    assert(res.passed, res.status.toString)
  }

  test("registration counts votes per candidate slot and starts new ŷ slots at the sharpened share") {
    val s = new CpaState(CpaConfig(T = 2, M = 1), 2, 2, 4, Array.fill(2)(Array.emptyIntArray), Nil)(
      CpaCore.initPhi(_, _, _, 1))
    assert(s.register(Seq(Answer(1, 0, Array(3)), Answer(1, 1, Array(1, 3)))).sameElements(Array(1)))
    assert(s.cand(1).sameElements(Array(1, 3)) && s.votesOf(1).sameElements(Array(1, 2)))
    assert(s.yhat(1)(0) == CpaCore.sharpenedShare(1, 2) && s.yhat(1)(1) == CpaCore.sharpenedShare(2, 2))
    // A later answer inserts label 0 first; the earlier slots keep their ŷ.
    s.register(Seq(Answer(1, 1, Array(0))))
    assert(s.cand(1).sameElements(Array(0, 1, 3)) && s.votesOf(1).sameElements(Array(1, 1, 2)))
    assert(s.yhat(1)(0) == CpaCore.sharpenedShare(1, 3) && s.yhat(1)(2) == CpaCore.sharpenedShare(2, 2))
    assert(s.nAns.sameElements(Array(0.0, 3.0)) && s.itemsSeen == 1 && s.meanAnswerSize == 4.0 / 3)
    assert(s.llr(0) == null && s.llr(1).sameElements(Array(0.0, 0.0, 0.0)))
  }
}

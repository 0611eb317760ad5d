package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{Answer, Datasets}

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

  private lazy val movie = Datasets.generate("movie", sf = 0.15)

  /** An empty SVI-style state of `movie` and its answers in 10 batches. */
  private def stream(): (CpaState, Seq[Seq[Answer]]) = {
    val s = new CpaState(CpaConfig(), movie.nItems, movie.nWorkers, movie.nLabels,
      Array.fill(movie.nItems)(Array.emptyIntArray), Nil)(CpaCore.initPhi(_, _, _, 5))
    val shuffled = new scala.util.Random(3).shuffle(movie.answers.toVector)
    (s, shuffled.grouped(shuffled.size / 10 + 1).toSeq)
  }

  /** Register `batch` and run the SVI step of batch number `b` over `engine`. */
  private def sviStep(s: CpaState, b: Int, batch: Seq[Answer], engine: CpaEngine): Unit = {
    val items = s.register(batch)
    s.step(engine, math.pow(1.0 + b, -CpaConfig().forgetRate), items, batch.map(_.worker).distinct.toArray)
    ()
  }

  test("a stream stepped on one-slice and four-slice batch engines agrees to 1e-9") {
    val (one, batches) = stream()
    val (four, _) = stream()
    batches.zipWithIndex.foreach { case (batch, b) =>
      sviStep(one, b + 1, batch, new LocalEngine(batch, 1))
      sviStep(four, b + 1, batch, new LocalEngine(batch, 4))
    }
    def close(x: Array[Array[Double]], y: Array[Array[Double]], what: String) =
      x.indices.foreach { r =>
        assert(x(r).length == y(r).length, s"$what($r)")
        x(r).indices.foreach(k => assert(math.abs(x(r)(k) - y(r)(k)) < 1e-9, s"$what($r)($k): ${x(r)(k)} vs ${y(r)(k)}"))
      }
    close(one.phi, four.phi, "phi")
    close(one.yhat, four.yhat, "yhat")
    close(one.kappa, four.kappa, "kappa")
    one.g.lambda.indices.foreach(t => close(one.g.lambda(t), four.g.lambda(t), s"lambda($t)"))
  }

  /** The scan the running n̄ sums stand for. */
  private def scanned(s: CpaState) = CpaCore.nbarSums(s.phi, s.yhat.map(_.sum), s.g.T)

  test("the running n-bar sums equal a fresh scan after every batch of a stream with a pinned item") {
    val (s, batches) = stream()
    val pinned = batches.head.head.item
    batches.zipWithIndex.foreach { case (batch, b) =>
      sviStep(s, b + 1, batch, new LocalEngine(batch))
      if (b == 2) s.pinTruth(pinned, movie.truth(pinned))
      val ((num, den), (numScan, denScan)) = (s.nbarSums, scanned(s))
      for ((run, scan, what) <- Seq((num, numScan, "num"), (den, denScan, "den")); t <- run.indices)
        assert(math.abs(run(t) - scan(t)) <= 1e-12 * math.abs(scan(t)), s"batch $b $what($t): ${run(t)} vs ${scan(t)}")
    }
  }

  test("a step over every item reads and leaves the n-bar sums of the scan, bit for bit") {
    val cfg = CpaConfig()
    val answers = movie.answers
    def bits(x: Array[Double]) = x.map(java.lang.Double.doubleToRawLongBits).toSeq
    val s = new CpaState(cfg, movie.nItems, movie.nWorkers, movie.nLabels,
      CpaCore.candidates(answers, movie.nItems), answers)(CpaCore.initPhi(_, _, _, cfg.seed))
    // Pinning shifts the running sums through other values, so their bits
    // leave the scan's.
    (0 until 8).foreach { i =>
      (0 until 3).foreach(_ => s.pinTruth(i, s.cand(i)))
      s.pinTruth(i, movie.truth(i))
    }
    val (num, den) = scanned(s)
    val scanNbar = bits(CpaCore.truthLayer(s.g, num, den, s.meanAnswerSize, s.llr, s.nAns).nbar)
    assert(bits(s.truthLayer(everyItem = false).nbar) != scanNbar, "the pins leave the sums' bits as they are")
    assert(bits(s.truthLayer(everyItem = true).nbar) == scanNbar)
    s.step(new LocalEngine(answers), 1.0, Array.range(0, movie.nItems), Array.range(0, movie.nWorkers))
    val ((numRun, denRun), (numScan, denScan)) = (s.nbarSums, scanned(s))
    assert(bits(numRun) == bits(numScan) && bits(denRun) == bits(denScan))
  }
}

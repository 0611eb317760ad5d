package repro.core

import org.apache.spark.sql.functions.{col, explode}
import org.scalacheck.{Gen, Prop, Test}
import repro.crowd.{Answer, Datasets}
import repro.spark.AnswerData
import repro.{Oracle, SparkSpec}

class CpaStateSpec extends SparkSpec {
  import CpaStateSpec.scanned

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
      val whole = new CpaState(cfg, nItems, 4, nLabels)
      assert(whole.register(as).sameElements(as.map(_.item).distinct))
      val grown = new CpaState(cfg, nItems, 4, nLabels)
      val rng = new scala.util.Random(seed)
      var rest = rng.shuffle(as)
      while (rest.nonEmpty) {
        val (batch, more) = rest.splitAt(1 + rng.nextInt(rest.size))
        val items = grown.register(batch)
        assert(items.sameElements(batch.map(_.item).distinct))
        rest = more
      }
      val cand = CpaCore.candidates(as, nItems)
      (0 until nItems).forall { i =>
        val answered = as.exists(_.item == i)
        Seq(whole, grown).forall(s =>
          if (answered) s.llr(i).length == s.cand(i).length && s.yhat(i).forall(!_.isNaN)
          else s.llr(i) == null) &&
          whole.cand(i).sameElements(cand(i)) &&
          grown.cand(i).sameElements(whole.cand(i)) &&
          whole.votesOf(i).sameElements(cand(i).map(c => as.count(a => a.item == i && a.labels.contains(c)))) &&
          grown.votesOf(i).sameElements(whole.votesOf(i)) &&
          grown.nAns(i) == whole.nAns(i)
      } && grown.itemsSeen == whole.itemsSeen && grown.answersSeen == whole.answersSeen &&
        grown.meanAnswerSize == whole.meanAnswerSize
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(23L), prop)
    assert(res.passed, res.status.toString)
  }

  test("registration counts votes per candidate slot and starts new ŷ slots at the sharpened share") {
    val s = new CpaState(CpaConfig(T = 2, M = 1), 2, 2, 4)
    assert(s.register(Seq(Answer(1, 0, Array(3)), Answer(1, 1, Array(1, 3)))).sameElements(Array(1)))
    assert(s.cand(1).sameElements(Array(1, 3)) && s.votesOf(1).sameElements(Array(1, 2)))
    assert(s.yhat(1)(0) == CpaCore.sharpenedShare(1, 2) && s.yhat(1)(1) == CpaCore.sharpenedShare(2, 2))
    // A later batch inserts labels 0 and 2 around the earlier slots, which keep their ŷ.
    s.register(Seq(Answer(1, 1, Array(0)), Answer(1, 0, Array(2, 3))))
    assert(s.cand(1).sameElements(Array(0, 1, 2, 3)) && s.votesOf(1).sameElements(Array(1, 1, 1, 3)))
    assert(s.yhat(1).sameElements(Array(CpaCore.sharpenedShare(1, 4), CpaCore.sharpenedShare(1, 2),
      CpaCore.sharpenedShare(1, 4), CpaCore.sharpenedShare(2, 2))))
    assert(s.nAns.sameElements(Array(0.0, 4.0)) && s.itemsSeen == 1 && s.meanAnswerSize == 6.0 / 4)
    assert(s.llr(0) == null && s.llr(1).sameElements(Array(0.0, 0.0, 0.0, 0.0)))
  }

  private lazy val movie = Datasets.generate("movie", sf = 0.15)

  /** An empty SVI state of `movie` and its answers in 10 batches. */
  private def stream(): (CpaState, Seq[Seq[Answer]]) = {
    val s = new CpaState(CpaConfig(), movie.nItems, movie.nWorkers, movie.nLabels)
    s.startPhi(fromVotes = false)
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

  test("the running n-bar sums stay within 1e-12 of the scan's total after every step of a VI fit") {
    val s = new CpaState(CpaConfig(), movie.nItems, movie.nWorkers, movie.nLabels)
    s.register(movie.answers)
    s.startPhi(fromVotes = true)
    def bits(x: Array[Double]) = x.map(java.lang.Double.doubleToRawLongBits).toSeq
    val ((num0, den0), (numScan0, denScan0)) = (s.nbarSums, scanned(s))
    assert(bits(num0) == bits(numScan0) && bits(den0) == bits(denScan0), "the sums start as the scan's")
    s.pinTruth(0, movie.truth(0))
    val engine = new LocalEngine(movie.answers)
    val (items, workers) = (Array.range(0, movie.nItems), Array.range(0, movie.nWorkers))
    s.globalStep(1.0, engine.bootstrapLambda(s.g.T, s.g.M, s.g.C, s.kappa, s.phi), engine.nAnswers, items, workers)
    // Relative to the total: a cluster that VI empties keeps residue of the
    // whole sum's rounding, which a per-cluster bound would magnify.
    (1 to 20).foreach { k =>
      s.step(engine, 1.0, items, workers)
      val ((num, den), (numScan, denScan)) = (s.nbarSums, scanned(s))
      for ((run, scan, what) <- Seq((num, numScan, "num"), (den, denScan, "den")); t <- run.indices)
        assert(math.abs(run(t) - scan(t)) <= 1e-12 * scan.sum, s"step $k $what($t): ${run(t)} vs ${scan(t)}")
    }
  }

  test("registered vote counts match a DuckDB oracle") {
    import spark.implicits._
    val s = new CpaState(CpaConfig(), movie.nItems, movie.nWorkers, movie.nLabels)
    movie.answers.grouped(movie.answers.size / 5 + 1).foreach(s.register)
    val registered = (0 until movie.nItems).flatMap(i =>
      s.cand(i).zip(s.votesOf(i)).map { case (c, v) => (i, c, v) }).toDF("item", "label", "votes")
    val flat = AnswerData.toDs(spark, movie.answers).select(col("item"), explode(col("labels")).as("label"))
    Oracle.assertEquivalent(registered,
      "SELECT item, label, COUNT(*) AS votes FROM flat GROUP BY item, label", "flat" -> flat)
  }
}

object CpaStateSpec {
  /** n̄'s sums (Σ_i ϕ_it·Σ_c ŷ_ic, Σ_i ϕ_it) per cluster, scanned over every
    * item in item order: what the state's running sums stand for.
    */
  def nbarScan(phi: Array[Array[Double]], yhat: Array[Array[Double]], T: Int): (Array[Double], Array[Double]) = {
    val num = new Array[Double](T)
    val den = new Array[Double](T)
    for (i <- phi.indices; t <- 0 until T) { num(t) += phi(i)(t) * yhat(i).sum; den(t) += phi(i)(t) }
    (num, den)
  }

  def scanned(s: CpaState): (Array[Double], Array[Double]) = nbarScan(s.phi, s.yhat, s.g.T)
}

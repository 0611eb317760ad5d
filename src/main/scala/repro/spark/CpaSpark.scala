package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders, SparkSession}
import repro.core._
import repro.crowd.Answer

/** Algorithm 3 — the MapReduce-parallelised CPA inference, realised on the
  * Spark Dataset API (the paper's own scalability experiments ran on Apache
  * Spark, §5.1).
  *
  * Per iteration:
  *  1. MAP phase 1: `groupByKey(worker).mapGroups` computes κ_u (Eq 2) for
  *     every worker from its answers, with the global parameters broadcast.
  *  2. MAP phase 2 + REDUCE: `mapPartitions` accumulates the per-answer
  *     sufficient statistics ([[CpaCore.accumulate]]: λ-statistic, a_it,
  *     truth-layer votes, community coins) into one dense buffer per
  *     partition, then a single `reduce` merges them — exactly the
  *     "emit {κ_um, a_it} / accumulate" structure of the paper's Algorithm 3.
  *  3. The (small) global updates run on the driver and are re-broadcast.
  *
  * Prediction is a `groupBy(item)`-shaped pass: one task per item slice
  * applies the greedy MAP instantiation independently (§3.4, "instantiation
  * can be done independently for all items").
  */
object CpaSpark {

  private implicit def statsEncoder: Encoder[CpaCore.SuffStats] =
    Encoders.kryo[CpaCore.SuffStats]
  private implicit def kappaEncoder: Encoder[(Int, Array[Double])] =
    Encoders.kryo[(Int, Array[Double])]

  /** Spark-backed [[CpaEngine]]: the two data passes run on executors. */
  final class SparkEngine(spark: SparkSession, ds: Dataset[AnswerRow],
      val nAnswers: Long, val meanAnswerSize: Double) extends CpaEngine {

    override def candidates(nItems: Int): Array[Array[Int]] = {
      import org.apache.spark.sql.functions._
      val rows = ds.select(col("item"), explode(col("labels")).as("label"))
        .distinct().collect()
      val sets = Array.fill(nItems)(scala.collection.mutable.SortedSet.empty[Int])
      rows.foreach(r => sets(r.getInt(0)) += r.getInt(1))
      sets.map(_.toArray)
    }

    override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
        d: CpaCore.Derived): Array[Array[Double]] = {
      val sc = spark.sparkContext
      val bPhi = sc.broadcast(phi)
      val bD = sc.broadcast(d)
      val rows = ds.groupByKey(_.worker)(Encoders.scalaInt)
        .mapGroups { (u, it) =>
          val answers = it.map(r => Answer(r.item, r.worker, r.labels.toArray)).toSeq
          (u, CpaCore.kappaRow(answers, bPhi.value, bD.value))
        }
        .collect()
      val out = kappa.map(_.clone())
      rows.foreach { case (u, row) => out(u) = row }
      bPhi.destroy(); bD.destroy()
      out
    }

    override def computeStats(T: Int, M: Int, C: Int, I: Int,
        kappa: Array[Array[Double]], phi: Array[Array[Double]],
        cand: Array[Array[Int]], yhat: Array[Array[Double]],
        d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats = {
      val sc = spark.sparkContext
      val bKappa = sc.broadcast(kappa)
      val bPhi = sc.broadcast(phi)
      val bCand = sc.broadcast(cand)
      val bYhat = sc.broadcast(yhat)
      val bD = sc.broadcast(d)
      val bSens = sc.broadcast(sensMc)
      val bFp = sc.broadcast(fpMc)
      val result = ds.mapPartitions { it =>
        val st = CpaCore.emptyStats(T, M, C, I)
        it.foreach { r =>
          val a = Answer(r.item, r.worker, r.labels.toArray)
          CpaCore.accumulate(st, a, bKappa.value(a.worker), bPhi.value(a.item),
            bD.value, bCand.value(a.item), bYhat.value(a.item), bSens.value, bFp.value)
        }
        Iterator.single(st)
      }.reduce((a, b) => a.merge(b))
      Seq(bKappa, bPhi, bCand, bYhat, bD, bSens, bFp).foreach(_.destroy())
      result
    }

    override def bootstrapLambda(T: Int, M: Int, C: Int,
        kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] = {
      val sc = spark.sparkContext
      val bKappa = sc.broadcast(kappa)
      val bPhi = sc.broadcast(phi)
      val result = ds.mapPartitions { it =>
        val stat = new Array[Double](T * M * C)
        it.foreach(r => CpaCore.accumulateLambda(stat, r.labels.toArray, bPhi.value(r.item),
          bKappa.value(r.worker), C))
        Iterator.single(stat)
      }(Encoders.kryo[Array[Double]]).reduce { (x, y) => CpaCore.addInto(x, y); x }
      bKappa.destroy(); bPhi.destroy()
      result
    }
  }

  /** Fit CPA on Spark: same VI loop as [[CpaVi]], distributed data passes.
    * Labels are sorted and de-duplicated first, so the fit equals the local
    * fit on the normalised answers.
    */
  def fit(spark: SparkSession, answers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig(), partitions: Int = 8): CpaModel = {
    val clean = answers.map(AnswerData.normalise)
    val ds = AnswerData.toDs(spark, clean, partitions).cache()
    try {
      val meanSize =
        if (clean.isEmpty) 1.0
        else clean.iterator.map(_.labels.length).sum.toDouble / clean.size
      val engine = new SparkEngine(spark, ds, clean.size.toLong, meanSize)
      CpaVi.fitEngine(engine, clean, nItems, nWorkers, nLabels, cfg)
    } finally ds.unpersist()
  }

  /** Distributed prediction: the greedy instantiation per item, parallelised
    * over items (each item is independent, §3.4). Returns (item, labels).
    */
  def predictDs(spark: SparkSession, model: CpaModel): Dataset[(Int, Seq[Int])] = {
    import spark.implicits._
    val bModel = spark.sparkContext.broadcast(model)
    spark.range(model.nItems.toLong)
      .as[Long]
      .map(i => (i.toInt, bModel.value.predictItem(i.toInt).toSeq))
  }

  /** Majority-voting-compatible prediction map computed via Spark. */
  def predict(spark: SparkSession, model: CpaModel): Map[Int, Array[Int]] =
    predictDs(spark, model).collect().map { case (i, ls) => i -> ls.toArray }.toMap
}

package repro.spark

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.crowd.Answer

import scala.reflect.ClassTag

/** Algorithm 3 — the MapReduce-parallelised CPA inference on Spark (the
  * paper's own scalability experiments ran on Apache Spark, §5.1).
  *
  * The cached answers are read as an RDD of [[Answer]] and coalesced
  * without a shuffle to one partition per core. Each engine pass is one
  * narrow stage over them: a `mapPartitions` that folds the partition's
  * answers through a [[CpaCore]] kernel, and a collect of one value per
  * partition that the driver merges in partition order, so a fit gives the
  * same floating-point sums in every run (`RDD.reduce` would merge in the
  * order the tasks finish). Per iteration:
  *  1. MAP phase 1 (Eq 2): each partition emits, for every worker it holds,
  *     the partial κ logits of that worker's answers there
  *     ([[CpaCore.kappaLogits]] from a zero start, the fold [[LocalEngine]]
  *     runs from E[ln π]). The logits are additive over answers, so
  *     the driver's sum of the partials plus E[ln π], through a softmax, is
  *     κ_u for any partitioning, with no `groupByKey` shuffle.
  *  2. MAP phase 2 + REDUCE: each partition accumulates its answers'
  *     sufficient statistics ([[CpaCore.accumulate]]: λ-statistic, a_it,
  *     truth-layer votes, community coins) into one dense buffer, and the
  *     driver merges the buffers — the "emit {κ_um, a_it} / accumulate"
  *     structure of the paper's Algorithm 3.
  *  3. The (small) global updates run on the driver.
  * Each pass broadcasts one value holding only what its kernel reads, and
  * destroys it when the pass ends.
  *
  * Prediction is one pass over the item ids: each task applies the greedy
  * MAP instantiation to its slice of items of the broadcast model
  * independently (§3.4, "instantiation can be done independently for all
  * items").
  */
object CpaSpark {

  /** Run `pass` with `value` broadcast, and destroy the broadcast after it. */
  private def withBroadcast[V: ClassTag, R](sc: SparkContext, value: V)(pass: Broadcast[V] => R): R = {
    val b = sc.broadcast(value)
    try pass(b) finally b.destroy()
  }

  /** What the κ kernel reads (broadcast by [[SparkEngine.computeKappa]]). */
  private final case class KappaInput(phi: Array[Array[Double]], dlam: Array[Array[Array[Double]]])

  /** What the statistics kernel reads (broadcast by [[SparkEngine.computeStats]]). */
  private final case class StatsInput(kappa: Array[Array[Double]], phi: Array[Array[Double]],
      cand: Array[Array[Int]], yhat: Array[Array[Double]], dlam: Array[Array[Array[Double]]],
      sensMc: Array[Double], fpMc: Array[Double])

  /** What the λ-bootstrap kernel reads (broadcast by [[SparkEngine.bootstrapLambda]]). */
  private final case class LambdaInput(kappa: Array[Array[Double]], phi: Array[Array[Double]])

  /** Spark-backed [[CpaEngine]] over cached answers: every pass is one narrow
    * stage with one task per core.
    */
  final class SparkEngine(spark: SparkSession, ds: Dataset[Answer],
      val nAnswers: Long, val meanAnswerSize: Double) extends CpaEngine {
    private val sc = spark.sparkContext

    /** The answers of `ds`, one partition per core. */
    private[spark] lazy val answers: RDD[Answer] = ds.rdd.coalesce(sc.defaultParallelism)

    override def candidates(nItems: Int): Array[Array[Int]] = {
      val sets = Array.fill(nItems)(scala.collection.mutable.SortedSet.empty[Int])
      answers.mapPartitions { it =>
        val cand = CpaCore.candidates(it, nItems)
        cand.indices.iterator.filter(cand(_).nonEmpty).map(i => (i, cand(i)))
      }.collect().foreach { case (i, ls) => sets(i) ++= ls }
      sets.map(_.toArray)
    }

    override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
        d: CpaCore.Derived): Array[Array[Double]] = {
      val U = kappa.length
      val M = d.elnPi.length
      val partials = withBroadcast(sc, KappaInput(phi, d.dlam)) { b =>
        answers.mapPartitions { it =>
          val in = b.value
          val rows = CpaCore.kappaLogits(it, U, in.phi, in.dlam)(new Array[Double](M))
          rows.indices.iterator.filter(rows(_) != null).map(u => (u, rows(u)))
        }.collect()
      }
      val logits = new Array[Array[Double]](U)
      partials.foreach { case (u, p) =>
        if (logits(u) == null) logits(u) = d.elnPi.clone()
        CpaCore.addInto(logits(u), p)
      }
      CpaCore.kappaFromLogits(kappa, logits)
    }

    override def computeStats(T: Int, M: Int, C: Int, I: Int,
        kappa: Array[Array[Double]], phi: Array[Array[Double]],
        cand: Array[Array[Int]], yhat: Array[Array[Double]],
        d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats =
      withBroadcast(sc, StatsInput(kappa, phi, cand, yhat, d.dlam, sensMc, fpMc)) { b =>
        answers.mapPartitions { it =>
          val in = b.value
          val st = CpaCore.emptyStats(T, M, C, I)
          it.foreach(a => CpaCore.accumulate(st, a, in.kappa(a.worker), in.phi(a.item), in.dlam,
            in.cand(a.item), in.yhat(a.item), in.sensMc, in.fpMc))
          Iterator.single(st)
        }.collect().reduceLeft(_ merge _)
      }

    override def bootstrapLambda(T: Int, M: Int, C: Int,
        kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] =
      withBroadcast(sc, LambdaInput(kappa, phi)) { b =>
        answers.mapPartitions { it =>
          val in = b.value
          val stat = new Array[Double](T * M * C)
          it.foreach(a => CpaCore.accumulateLambda(stat, a.labels, in.phi(a.item), in.kappa(a.worker), C))
          Iterator.single(stat)
        }.collect().reduceLeft { (x, y) => CpaCore.addInto(x, y); x }
      }
  }

  /** Fit CPA on Spark: same VI loop as [[CpaVi]], distributed data passes.
    * Labels are sorted and de-duplicated first, so the fit equals the local
    * fit on the normalised answers.
    */
  def fit(spark: SparkSession, answers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig()): CpaModel = {
    val clean = answers.map(AnswerData.normalise)
    val ds = AnswerData.toDs(spark, clean).cache()
    try {
      val engine = new SparkEngine(spark, ds, clean.size.toLong, CpaCore.meanAnswerSize(clean))
      CpaVi.fitEngine(engine, clean, nItems, nWorkers, nLabels, cfg)
    } finally { ds.unpersist(); () }
  }

  /** Distributed prediction: the greedy instantiation per item, parallelised
    * over items (each item is independent, §3.4), as a map item → labels.
    */
  def predict(spark: SparkSession, model: CpaModel): Map[Int, Array[Int]] =
    withBroadcast(spark.sparkContext, model) { b =>
      spark.sparkContext.parallelize(0 until model.nItems)
        .map(i => i -> b.value.predictItem(i)).collect().toMap
    }
}

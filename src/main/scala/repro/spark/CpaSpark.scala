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
  * [[SparkEngine]] is a [[PartitionedEngine]] over the partitions of the
  * cached answers: each pass broadcasts what its kernel reads, folds every
  * partition's answers in one task (one narrow stage, no shuffle), collects
  * one value per partition and merges them on the driver in partition order
  * (`RDD.reduce` would merge in the order the tasks finish). Per iteration:
  *  1. MAP phase 1 (Eq 2): each partition emits, for every worker it holds,
  *     the partial κ logits of that worker's answers there
  *     ([[CpaCore.kappaLogits]]; partition 0 from E[ln π], the others from
  *     zero). The logits are additive over answers, so the driver's sum of
  *     the partials, through a softmax, is κ_u for any partitioning, with no
  *     `groupByKey` shuffle.
  *  2. MAP phase 2 + REDUCE: each partition accumulates its answers'
  *     sufficient statistics ([[CpaCore.accumulate]]: λ-statistic, a_it,
  *     truth-layer votes, community coins) into one buffer, with a_it and
  *     vote rows only for the items it holds, and the driver merges the
  *     buffers — the "emit {κ_um, a_it} / accumulate"
  *     structure of the paper's Algorithm 3.
  *  3. The (small) global updates run on the driver.
  * [[AnswerData.toDs]] splits the answers into contiguous slices, so a Spark
  * fit is bit-identical, run after run, to a fit over any engine that folds
  * the same slices through the same passes: a [[LocalEngine]] of as many
  * slices as the Dataset has partitions (four, the default, on `local[4]`).
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

  /** Spark-backed [[CpaEngine]] over cached answers: every pass is one narrow
    * stage with one task per partition of `ds`.
    */
  final class SparkEngine(spark: SparkSession, ds: Dataset[Answer],
      val nAnswers: Long, val meanAnswerSize: Double) extends PartitionedEngine {
    private val sc = spark.sparkContext

    /** The answers of `ds`, in its partitions. */
    private[spark] lazy val answers: RDD[Answer] = ds.rdd

    override protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
        kernel: (In, Int, Iterator[Answer]) => Out): Array[Out] =
      withBroadcast(sc, in) { b =>
        answers.mapPartitionsWithIndex((p, it) => Iterator.single(kernel(b.value, p, it))).collect()
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

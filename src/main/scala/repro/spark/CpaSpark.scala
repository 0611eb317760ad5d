package repro.spark

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.crowd.Answer

import scala.reflect.ClassTag

/** Algorithm 3 — the MapReduce-parallelised CPA inference on Spark (the
  * paper's own scalability experiments ran on Apache Spark, §5.1).
  *
  * [[SparkEngine]] is a [[PartitionedEngine]] over the partitions of the
  * cached answers: each pass broadcasts what its kernel reads and runs one
  * job, `SparkContext.runJob` on the cached RDD, whose task for partition p
  * folds p's answers and returns one value (one narrow stage, no shuffle).
  * `runJob` returns the values in partition order, and the driver merges
  * them in that order (`RDD.reduce` would merge in the order the tasks
  * finish). The task function is built in this object and captures only the
  * broadcast and the kernel, so the closure cleaner finds no enclosing
  * object to walk (`RDD.collect`'s closure captures its RDD, whose class
  * the cleaner would read on every pass). A statistics pass ships each
  * partition's [[CpaCore.SuffStats]] in its packed wire form (the set
  * λ-statistic entries and the rows of the items the partition holds). Per
  * iteration:
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
  * Prediction is one job of the same shape over the item ids: each task
  * applies the greedy MAP instantiation to its slice of items of the
  * broadcast model independently (§3.4, "instantiation can be done
  * independently for all items").
  */
object CpaSpark {

  /** `kernel(in, p, rows of p)` on every partition p of `rdd`, with `in`
    * broadcast (and destroyed after the pass): one job, one value per
    * partition, in partition order. The task function captures the broadcast
    * and the kernel and nothing else.
    */
  private def runPass[In: ClassTag, T, Out: ClassTag](sc: SparkContext, rdd: RDD[T], in: In)(
      kernel: (In, Int, Iterator[T]) => Out): Array[Out] = {
    val b = sc.broadcast(in)
    try sc.runJob(rdd, (ctx: TaskContext, it: Iterator[T]) => kernel(b.value, ctx.partitionId(), it))
    finally b.destroy()
  }

  /** Spark-backed [[CpaEngine]] over cached answers: every pass is one
    * `runJob` of one narrow stage with one task per partition of `ds`.
    */
  final class SparkEngine(spark: SparkSession, ds: Dataset[Answer],
      val nAnswers: Long, val meanAnswerSize: Double) extends PartitionedEngine {
    private val sc = spark.sparkContext

    /** The answers of `ds`, in its partitions. */
    private[spark] lazy val answers: RDD[Answer] = ds.rdd

    override protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
        kernel: (In, Int, Iterator[Answer]) => Out): Array[Out] =
      runPass(sc, answers, in)(kernel)
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
  def predict(spark: SparkSession, model: CpaModel): Map[Int, Array[Int]] = {
    val sc = spark.sparkContext
    runPass(sc, sc.parallelize(0 until model.nItems), model) { (m, _, items) =>
      items.map(i => i -> m.predictItem(i)).toArray
    }.flatten.toMap
  }
}

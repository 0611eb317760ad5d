package repro.spark

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.crowd.Answer

import scala.reflect.ClassTag

/** Algorithm 3 — the MapReduce-parallelised CPA inference on Spark (the
  * paper's own scalability experiments ran on Apache Spark, §5.1).
  *
  * [[SparkEngine]] is a [[PartitionedEngine]] over the partitions of the
  * answers. Its first pass turns each partition of the Dataset into one
  * `Array[Answer]`, its slice, which is persisted deserialised and locally
  * checkpointed: later passes read the stored slices, so they neither
  * decode the answers again nor ship them inside their tasks (a task then
  * carries a checkpoint partition, not the Dataset's rows). Each pass
  * broadcasts what its kernel reads and runs one job, `SparkContext.runJob`
  * on the slices, whose task for partition p folds p's answers and returns
  * one value (one narrow stage, no shuffle). The κ and the statistics pass
  * of a step read the same [[CpaCore.Derived]] (E[ln ψ] is T·M·C doubles),
  * which is broadcast once for both. `runJob` returns the values in
  * partition order, and the driver merges them in that order (`RDD.reduce`
  * would merge in the order the tasks finish). The task function is built
  * in this object and captures only the broadcasts and the kernel, so the
  * closure cleaner finds no enclosing object to walk (`RDD.collect`'s
  * closure captures its RDD, whose class the cleaner would read on every
  * pass). A statistics pass ships each partition's [[CpaCore.SuffStats]] in
  * its packed wire form (the set λ-statistic entries and the rows of the
  * items the partition holds). Per iteration:
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

  /** One array per partition of `answers`, in the same partitions, persisted
    * and marked for a local checkpoint: the first job over it stores the
    * arrays and cuts its lineage.
    */
  private def slicesOf(answers: RDD[Answer]): RDD[Array[Answer]] =
    answers.mapPartitions(it => Iterator.single(it.toArray), preservesPartitioning = true)
      .persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()

  /** `kernel` over the answers of a partition's slices. */
  private def overSlices[In, Out](kernel: (In, Int, Iterator[Answer]) => Out)
      : (In, Int, Iterator[Array[Answer]]) => Out =
    (in, p, it) => kernel(in, p, it.flatMap(_.iterator))

  /** `kernel` reading the broadcast step `d`. */
  private def reading[In, Out](d: Broadcast[CpaCore.Derived],
      kernel: (CpaCore.Derived, In, Int, Iterator[Answer]) => Out): (In, Int, Iterator[Answer]) => Out =
    (in, p, it) => kernel(d.value, in, p, it)

  /** Spark-backed [[CpaEngine]] over the answers of `ds`: every pass is one
    * `runJob` of one narrow stage with one task per partition of `ds`.
    *
    * The first pass builds the persisted, locally checkpointed answer slices
    * (see [[CpaSpark]]), and every later pass reads them. The κ and the
    * statistics pass broadcast their step's [[CpaCore.Derived]] once, keyed
    * on the object: [[CpaState.step]] derives a fresh one every step and
    * nothing writes to it. That broadcast is destroyed when the next
    * `Derived` arrives. [[close]] unpersists the slices and destroys the
    * last broadcast; an engine that is never closed leaves both to Spark's
    * `ContextCleaner`, which drops them once the engine is unreachable.
    *
    * A local checkpoint keeps the slices only in the executors' block
    * stores, so a lost slice block (with its executor, say) fails the fit
    * instead of recomputing the slice. Each [[close]] logs Spark's warning
    * that the unpersisted slices cannot be recomputed.
    */
  final class SparkEngine(spark: SparkSession, ds: Dataset[Answer],
      val nAnswers: Long, val meanAnswerSize: Double) extends PartitionedEngine {
    private val sc = spark.sparkContext

    /** The answers of `ds`, in its partitions. */
    private[spark] lazy val answers: RDD[Answer] = ds.rdd

    private var cut: RDD[Array[Answer]] = _

    /** The answer slices, one per partition of [[answers]]. */
    private[spark] def slices: RDD[Array[Answer]] = {
      if (cut == null) cut = slicesOf(answers)
      cut
    }

    private var shipped: CpaCore.Derived = _
    private var shippedAs: Broadcast[CpaCore.Derived] = _

    private def releaseDerived(): Unit =
      if (shippedAs != null) { shippedAs.destroy(); shippedAs = null; shipped = null }

    override protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
        kernel: (In, Int, Iterator[Answer]) => Out): Array[Out] =
      runPass(sc, slices, in)(overSlices(kernel))

    override protected def eachPartitionWith[In: ClassTag, Out: ClassTag](d: CpaCore.Derived, in: In)(
        kernel: (CpaCore.Derived, In, Int, Iterator[Answer]) => Out): Array[Out] = {
      if (shipped ne d) { releaseDerived(); shippedAs = sc.broadcast(d); shipped = d }
      runPass(sc, slices, in)(overSlices(reading(shippedAs, kernel)))
    }

    /** Unpersist the slices and destroy the last step's broadcast. */
    def close(): Unit = {
      releaseDerived()
      if (cut != null) { cut.unpersist(); cut = null }
    }
  }

  /** Fit CPA on Spark: same VI loop as [[CpaVi]], distributed data passes
    * over the engine's answer slices, which the engine releases when the fit
    * ends. Labels are sorted and de-duplicated first, so the fit equals the
    * local fit on the normalised answers.
    */
  def fit(spark: SparkSession, answers: Seq[Answer],
      nItems: Int, nWorkers: Int, nLabels: Int,
      cfg: CpaConfig = CpaConfig()): CpaModel = {
    val clean = answers.map(AnswerData.normalise)
    val engine = new SparkEngine(spark, AnswerData.toDs(spark, clean), clean.size.toLong,
      CpaCore.meanAnswerSize(clean))
    try CpaVi.fitEngine(engine, clean, nItems, nWorkers, nLabels, cfg)
    finally engine.close()
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

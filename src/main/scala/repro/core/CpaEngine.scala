package repro.core

import repro.crowd.Answer
import repro.util.Par

import scala.annotation.nowarn
import scala.reflect.ClassTag

/** Data-pass abstraction for CPA inference (the MAP/REDUCE split of
  * Algorithm 3). The VI loop in [[CpaVi]] is engine-agnostic. The engines
  * of the program are [[PartitionedEngine]]s: the local engine
  * ([[LocalEngine]]) folds contiguous slices of a `Seq[Answer]` on the
  * driver's thread pool, the Spark engine ([[repro.spark.CpaSpark]]) folds
  * each partition's persisted answer slice in a task. Both run the same
  * passes and merge the partitions' results in partition order, so two
  * engines that split the same answers into the same contiguous partitions
  * give bit-identical fits.
  */
trait CpaEngine {

  /** Number of answers the passes run over, which [[CpaState.step]] reads,
    * and the mean number of labels per answer, which no fit reads
    * ([[CpaState]] counts what it registers): it stays for the benchmark
    * harness (`perfbench/`), which implements and checks it.
    */
  def nAnswers: Long
  def meanAnswerSize: Double

  /** Candidate labels per item (labels voted by at least one worker), which
    * [[CpaVi.fitEngine]] checks against the rows it registers.
    */
  def candidates(nItems: Int): Array[Array[Int]]

  /** MAP phase part 1 (Eq 2): fresh κ rows for every worker that has
    * answers; workers without answers keep their current row.
    */
  def computeKappa(
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]]

  /** MAP phase part 2 + REDUCE (Eq 6, Eq 15, truth-layer statistics):
    * per-answer sufficient statistics accumulated via [[CpaCore.accumulate]].
    */
  def computeStats(
      T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]],
      cand: Array[Array[Int]],
      yhat: Array[Array[Double]],
      d: CpaCore.Derived,
      sensMc: Array[Double],
      fpMc: Array[Double]): CpaCore.SuffStats

  /** Bootstrap λ statistic (Σ ϕ⁰ κ⁰ x) before the first iteration. */
  def bootstrapLambda(
      T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]]): Array[Double]
}

/** The four passes of a [[CpaEngine]], written once over answers split into
  * partitions. Each pass folds every partition's answers through its
  * [[CpaCore]] kernel ([[eachPartition]]) and merges the partials in
  * partition order, starting from the pass's zero when there are no
  * partitions:
  *  - candidates: the sorted union of the partitions' label sets per item;
  *  - κ: partition 0 folds each worker's logits from E[ln π], later
  *    partitions from zero; the merge adds a later partition's row onto the
  *    worker's row, starting a worker first seen after partition 0 at
  *    E[ln π]. With one partition this is the fold of all answers from E[ln π];
  *  - statistics and the λ bootstrap: the partitions' sums, added in order.
  * So the merged values depend only on how the answers are split into
  * contiguous partitions, not on which engine folds them.
  */
abstract class PartitionedEngine extends CpaEngine {

  /** `kernel(in, p, answers of partition p)` for every partition p, in
    * partition order. The kernels of this class capture only `Int`s: every
    * array they read comes through `in`, or through the step's `d` of
    * [[eachPartitionWith]].
    */
  protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
      kernel: (In, Int, Iterator[Answer]) => Out): Array[Out]

  /** [[eachPartition]] for a pass that reads the step's [[CpaCore.Derived]]
    * (the κ and the statistics pass): `kernel(d, in, p, answers of p)`. The
    * two passes of a step receive the same `d` through this hook apart from
    * their other inputs, so an engine can ship it once per step; here it is
    * folded into `in`. (`In`'s class tag is for an override that ships `in`
    * on its own.)
    */
  @nowarn("cat=unused-params")
  protected def eachPartitionWith[In: ClassTag, Out: ClassTag](d: CpaCore.Derived, in: In)(
      kernel: (CpaCore.Derived, In, Int, Iterator[Answer]) => Out): Array[Out] =
    eachPartition((d, in)) { case ((d, in), p, it) => kernel(d, in, p, it) }

  override def candidates(nItems: Int): Array[Array[Int]] =
    eachPartition(nItems)((n, _, it) => CpaCore.candidates(it, n))
      .reduceLeftOption { (acc, more) =>
        var i = 0
        while (i < acc.length) { acc(i) = CpaCore.union(acc(i), more(i)); i += 1 }
        acc
      }.getOrElse(Array.fill(nItems)(Array.emptyIntArray))

  override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]] = {
    val U = kappa.length
    val M = d.elnPi.length
    val logits = eachPartitionWith(d, phi) { (d, phi, p, it) =>
      CpaCore.kappaLogits(it, U, phi, d.dlam)(if (p == 0) d.elnPi.clone() else new Array[Double](M))
    }.reduceLeftOption { (acc, more) =>
      more.indices.foreach { u =>
        if (more(u) != null) {
          if (acc(u) == null) acc(u) = d.elnPi.clone()
          CpaCore.addInto(acc(u), more(u))
        }
      }
      acc
    }.getOrElse(new Array[Array[Double]](U))
    CpaCore.kappaFromLogits(kappa, logits)
  }

  override def computeStats(T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]],
      cand: Array[Array[Int]], yhat: Array[Array[Double]],
      d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats =
    eachPartitionWith(d, (kappa, phi, cand, yhat, sensMc, fpMc)) {
      case (d, (kappa, phi, cand, yhat, sensMc, fpMc), _, it) =>
        val st = CpaCore.emptyStats(T, M, C, I)
        it.foreach(a => CpaCore.accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam,
          cand(a.item), yhat(a.item), sensMc, fpMc))
        st
    }.reduceLeftOption(_ merge _).getOrElse(CpaCore.emptyStats(T, M, C, I))

  override def bootstrapLambda(T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] =
    eachPartition((kappa, phi)) { case ((kappa, phi), _, it) =>
      val stat = new Array[Double](T * M * C)
      it.foreach(a => CpaCore.accumulateLambda(stat, a.labels, phi(a.item), kappa(a.worker), C))
      stat
    }.reduceLeftOption { (x, y) => CpaCore.addInto(x, y); x }.getOrElse(new Array[Double](T * M * C))
}

/** Driver-local engine over an in-memory answer list: the whole answer set
  * of a [[CpaVi]] fit, or one batch of a [[CpaSvi]] stream; both use
  * [[LocalEngine.Slices]] slices by default. It copies the answers into an
  * array and cuts its n answers into min(n, `slices`) contiguous slices,
  * slice p holding answers [p·n/P, (p+1)·n/P): the bounds of Spark's
  * `ParallelCollectionRDD` under [[repro.spark.AnswerData.toDs]], whose
  * partitions the Spark engine keeps as its answer slices. The slices are
  * folded at once on [[repro.util.Par]] (one slice runs
  * inline), each walking its index range of the array, and merged in slice
  * order, so a fit depends on `slices`, never on the core count, and equals
  * a Spark fit over the same P partitions bit for bit. Without answers there
  * are no slices, as in Spark.
  */
final class LocalEngine(answers: Seq[Answer], slices: Int = LocalEngine.Slices) extends PartitionedEngine {
  require(slices > 0 || (slices == 0 && answers.isEmpty), s"$slices slices for ${answers.size} answers")

  private val all: Array[Answer] = answers.toArray
  private val n = all.length
  private val P = math.min(n, slices)

  override def nAnswers: Long = n.toLong

  override def meanAnswerSize: Double = CpaCore.meanAnswerSize(answers)

  private def slice(p: Int): Iterator[Answer] = new scala.collection.AbstractIterator[Answer] {
    private var k = (p.toLong * n / P).toInt
    private val end = ((p + 1).toLong * n / P).toInt
    def hasNext: Boolean = k < end
    def next(): Answer = {
      if (k >= end) throw new NoSuchElementException(s"slice $p is exhausted")
      val a = all(k); k += 1; a
    }
  }

  override protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
      kernel: (In, Int, Iterator[Answer]) => Out): Array[Out] = {
    val out = new Array[Out](P)
    Par.foreachRange(P)(p => out(p) = kernel(in, p, slice(p)))
    out
  }
}

object LocalEngine {

  /** Slices of a [[CpaVi]] fit and of each [[CpaSvi]] batch: a constant, so
    * a fit or a stream is the same on any machine. It matches the four cores
    * of the reference host and the `local[4]` Spark fits that
    * `repro.tools.FitDigest` compares.
    */
  val Slices: Int = 4
}

package repro.core

import repro.crowd.Answer

import scala.reflect.ClassTag

/** A driver-local [[PartitionedEngine]] that splits `answers` into `P`
  * contiguous slices, partition p holding answers [p·n/P, (p+1)·n/P): the
  * slices Spark's `ParallelCollectionRDD` cuts, which
  * [[repro.spark.AnswerData.toDs]] caches. `P` = 0 gives no partitions.
  */
final class SlicedEngine(answers: IndexedSeq[Answer], P: Int) extends PartitionedEngine {
  require(P >= 0 && (P > 0 || answers.isEmpty), s"$P partitions for ${answers.size} answers")

  override def nAnswers: Long = answers.size.toLong

  override def meanAnswerSize: Double = CpaCore.meanAnswerSize(answers)

  override protected def eachPartition[In: ClassTag, Out: ClassTag](in: In)(
      kernel: (In, Int, Iterator[Answer]) => Out): Array[Out] = {
    val n = answers.size.toLong
    Array.tabulate(P) { p =>
      kernel(in, p, answers.slice((p * n / P).toInt, ((p + 1) * n / P).toInt).iterator)
    }
  }
}

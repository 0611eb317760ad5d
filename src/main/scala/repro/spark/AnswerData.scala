package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.CpaCore
import repro.crowd.Answer

/** The driver-local answers as the Spark Dataset a [[CpaSpark]] fit reads. */
object AnswerData {

  /** `a` with its labels sorted and distinct, as [[Answer]] documents them. */
  def normalise(a: Answer): Answer =
    if (CpaCore.strictlyIncreasing(a.labels)) a else a.copy(labels = a.labels.distinct.sorted)

  /** Answers as a typed Dataset (item, worker, labels array<int>); labels are
    * stored sorted and distinct. Its partitions are contiguous slices of
    * `answers` in order, min(|answers|, default parallelism) of them (none
    * without answers): partition p holds answers [p·n/P, (p+1)·n/P).
    */
  def toDs(spark: SparkSession, answers: Seq[Answer]): Dataset[Answer] = {
    import spark.implicits._
    spark.createDataset(answers.map(normalise))
  }
}

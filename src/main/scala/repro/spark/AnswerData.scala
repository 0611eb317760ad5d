package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.core.CpaCore
import repro.crowd.{Answer, CrowdDataset}

/** Conversions between the driver-local answer representation and Spark
  * DataFrames/Datasets.
  */
object AnswerData {

  /** `a` with its labels sorted and distinct, as [[Answer]] documents them. */
  def normalise(a: Answer): Answer =
    if (CpaCore.strictlyIncreasing(a.labels)) a else a.copy(labels = a.labels.distinct.sorted)

  private val Partitions = 8

  /** Answers as a typed Dataset (item, worker, labels array<int>); labels are
    * stored sorted and distinct.
    */
  def toDs(spark: SparkSession, answers: Seq[Answer]): Dataset[Answer] = {
    import spark.implicits._
    spark.createDataset(answers.map(normalise)).repartition(Partitions)
  }

  /** Answers as an untyped DataFrame (item, worker, labels). */
  def toDf(spark: SparkSession, answers: Seq[Answer]): DataFrame =
    toDs(spark, answers).toDF()

  /** Ground truth as a DataFrame (item, labels) for metric computation. */
  def truthDf(spark: SparkSession, ds: CrowdDataset): DataFrame = {
    import spark.implicits._
    ds.truth.zipWithIndex.map { case (ls, i) => (i, ls.toSeq) }.toSeq.toDF("item", "labels")
  }

  /** A prediction map as a DataFrame (item, labels). */
  def predictionsDf(spark: SparkSession, pred: Map[Int, Array[Int]]): DataFrame = {
    import spark.implicits._
    pred.toSeq.map { case (i, ls) => (i, ls.toSeq) }.toDF("item", "labels")
  }
}

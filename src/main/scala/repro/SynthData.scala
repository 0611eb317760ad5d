package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The paper's evaluation data (crowdsourced multi-label answers) as
  * DataFrames at a scale factor. The generative crowd model lives in
  * [[repro.crowd.CrowdSim]] / [[repro.crowd.Datasets]].
  */
object SynthData {

  /** Answer matrix of one of the five replica datasets as a DataFrame
    * (item: Int, worker: Int, labels: Array[Int]). SF=1.0 is paper scale.
    */
  def crowdAnswers(spark: SparkSession, dataset: String = "image",
      sf: Double = 0.01, seed: Long = 42L): DataFrame =
    repro.spark.AnswerData.toDf(spark, repro.crowd.Datasets.generate(dataset, sf, seed).answers)

  /** Ground truth of the same replica as a DataFrame (item, labels). */
  def crowdTruth(spark: SparkSession, dataset: String = "image",
      sf: Double = 0.01, seed: Long = 42L): DataFrame =
    repro.spark.AnswerData.truthDf(spark, repro.crowd.Datasets.generate(dataset, sf, seed))
}

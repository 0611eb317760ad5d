package repro

import org.apache.spark.sql.functions._

/** The crowd-schema DataFrames (the paper's evaluation data). */
class SynthDataSpec extends SparkSpec {

  test("crowdAnswers exposes the answer matrix with the expected schema") {
    val df = SynthData.crowdAnswers(spark, "movie", sf = 0.1)
    assert(df.columns.toSeq == Seq("item", "worker", "labels"))
    assert(df.count() == 1443L)
  }
  test("crowdTruth covers every item of the replica exactly once") {
    val df = SynthData.crowdTruth(spark, "movie", sf = 0.1)
    assert(df.count() == 50L)
    assert(df.select("item").distinct().count() == 50L)
  }
  test("crowd answer vote counts agree with the DuckDB oracle") {
    val answers = SynthData.crowdAnswers(spark, "movie", sf = 0.1)
    val flat = answers.select(col("item"), explode(col("labels")).as("label"))
    val sparkAgg = flat.groupBy("label").agg(count(lit(1)).as("votes"))
    Oracle.assertEquivalent(sparkAgg,
      "SELECT label, COUNT(*) AS votes FROM flat GROUP BY label",
      "flat" -> flat)
  }
}

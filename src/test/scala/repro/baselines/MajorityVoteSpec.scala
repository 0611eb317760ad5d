package repro.baselines

import org.apache.spark.sql.functions._
import repro.crowd.{Answer, Datasets}
import repro.tables.Tables
import repro.{Oracle, SparkSpec}
import repro.spark.AnswerData

class MajorityVoteSpec extends SparkSpec {

  test("reproduces the paper's Majority column on Table 1 exactly") {
    val mv = MajorityVote.aggregate(Tables.table1Answers)
    Tables.table1Majority.foreach { case (i, expect) =>
      assert(mv(i).sameElements(expect), s"item $i: got ${mv(i).toSeq}")
    }
  }
  test("a unanimous label is always included") {
    val mv = MajorityVote.aggregate(Seq(
      Answer(0, 0, Array(1)), Answer(0, 1, Array(1)), Answer(0, 2, Array(1))))
    assert(mv(0).sameElements(Array(1)))
  }
  test("a label at exactly 50% of the votes is excluded") {
    val mv = MajorityVote.aggregate(Seq(
      Answer(0, 0, Array(1)), Answer(0, 1, Array(2))))
    assert(mv(0).isEmpty)
  }
  test("vote ratios are the fraction of the item's answering workers") {
    val ratios = MajorityVote.voteRatios(Seq(
      Answer(0, 0, Array(1, 2)), Answer(0, 1, Array(1)), Answer(0, 2, Array(3))))
    assert(math.abs(ratios((0, 1)) - 2.0 / 3.0) < 1e-12)
    assert(math.abs(ratios((0, 2)) - 1.0 / 3.0) < 1e-12)
    assert(math.abs(ratios((0, 3)) - 1.0 / 3.0) < 1e-12)
  }
  test("items are aggregated independently") {
    val mv = MajorityVote.aggregate(Seq(
      Answer(0, 0, Array(1)), Answer(1, 0, Array(2)), Answer(1, 1, Array(2))))
    assert(mv(0).sameElements(Array(1)) && mv(1).sameElements(Array(2)))
  }

  private lazy val ds = Datasets.generate("topic", sf = 0.1)

  test("Spark DataFrame implementation matches the local implementation") {
    val local = MajorityVote.aggregate(ds.answers)
    val df = MajorityVote.aggregateDf(AnswerData.toDf(spark, ds.answers))
    val dist = df.collect().map(r =>
      r.getInt(0) -> r.getSeq[Int](1).toArray).toMap
    val answeredItems = ds.answers.map(_.item).distinct
    assert(dist.keySet == answeredItems.toSet)
    answeredItems.foreach { i =>
      assert(dist(i).sameElements(local.getOrElse(i, Array.empty)), s"item $i")
    }
  }

  test("Spark vote counting matches a DuckDB oracle") {
    val answersDf = AnswerData.toDf(spark, ds.answers)
    val flat = answersDf.select(col("item"), col("worker"), explode(col("labels")).as("label"))
    val sparkVotes = flat.groupBy("item", "label")
      .agg(count(lit(1)).as("votes"))
    Oracle.assertEquivalent(
      sparkVotes,
      "SELECT item, label, COUNT(*) AS votes FROM flat GROUP BY item, label",
      "flat" -> flat)
  }

  test("Spark majority sets match a DuckDB oracle (exploded comparison)") {
    val answersDf = AnswerData.toDf(spark, ds.answers)
    val result = MajorityVote.aggregateDf(answersDf)
      .select(col("item"), explode(col("labels")).as("label"))
    val flat = answersDf.select(col("item"), col("worker"), explode(col("labels")).as("label"))
    val perItem = answersDf.groupBy("item").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      result,
      """
      SELECT v.item AS item, v.label AS label
      FROM (SELECT item, label, COUNT(*) AS votes FROM flat GROUP BY item, label) v
      JOIN per_item p ON v.item = p.item
      WHERE v.votes * 1.0 / CAST(p.n AS DOUBLE) > 0.5
      """,
      "flat" -> flat, "per_item" -> perItem)
  }
}

package repro.baselines

import org.apache.spark.sql.functions.{col, explode}
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
  test("items are aggregated independently") {
    val mv = MajorityVote.aggregate(Seq(
      Answer(0, 0, Array(1)), Answer(1, 0, Array(2)), Answer(1, 1, Array(2))))
    assert(mv(0).sameElements(Array(1)) && mv(1).sameElements(Array(2)))
  }

  private lazy val ds = Datasets.generate("topic", sf = 0.1)

  test("majority sets match a DuckDB oracle (exploded comparison)") {
    import spark.implicits._
    val result = MajorityVote.aggregate(ds.answers).toSeq
      .flatMap { case (i, ls) => ls.map(c => (i, c)) }.toDF("item", "label")
    val answersDs = AnswerData.toDs(spark, ds.answers)
    val flat = answersDs.select(col("item"), col("worker"), explode(col("labels")).as("label"))
    val answered = answersDs.select(col("item"), col("worker"))
    Oracle.assertEquivalent(
      result,
      """
      SELECT v.item AS item, v.label AS label
      FROM (SELECT item, label, COUNT(*) AS votes FROM flat GROUP BY item, label) v
      JOIN (SELECT item, COUNT(*) AS n FROM answered GROUP BY item) p ON v.item = p.item
      WHERE v.votes * 1.0 / CAST(p.n AS DOUBLE) > 0.5
      """,
      "flat" -> flat, "answered" -> answered)
  }
}

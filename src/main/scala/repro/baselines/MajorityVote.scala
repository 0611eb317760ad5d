package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.crowd.Answer

/** Majority voting baseline ([17], [18] in the paper): each label is decided
  * independently — include label c for item i iff the fraction of the item's
  * answering workers that voted for c exceeds 0.5. This is the "Majority"
  * column of Table 1 and the MV rows of Table 4.
  */
object MajorityVote {

  /** Driver-local aggregation over an answer list. */
  def aggregate(answers: Seq[Answer]): Map[Int, Array[Int]] = {
    answers.groupBy(_.item).map { case (item, as) =>
      val n = as.size.toDouble
      val votes = scala.collection.mutable.Map.empty[Int, Int]
      as.foreach(_.labels.foreach(c => votes.update(c, votes.getOrElse(c, 0) + 1)))
      item -> votes.collect { case (c, v) if v / n > 0.5 => c }.toArray.sorted
    }
  }

  /** Spark SQL implementation over an answers DataFrame with columns
    * (item: Int, worker: Int, labels: Array[Int]). Output: (item, labels)
    * where labels is the sorted majority label set (items whose every label
    * falls at or below the 0.5 ratio still appear, with an empty array).
    */
  def aggregateDf(answers: DataFrame): DataFrame = {
    val perItem = answers.groupBy("item").agg(count(lit(1)).as("n_answers"))
    val votes = answers
      .select(col("item"), explode(col("labels")).as("label"))
      .groupBy("item", "label")
      .agg(count(lit(1)).as("votes"))
    val accepted = votes
      .join(perItem, "item")
      .where(col("votes").cast("double") / col("n_answers") > 0.5)
      .groupBy("item")
      .agg(array_sort(collect_list(col("label"))).as("labels"))
    perItem.select(col("item"))
      .join(accepted, Seq("item"), "left")
      .select(col("item"), coalesce(col("labels"), array().cast("array<int>")).as("labels"))
  }
}

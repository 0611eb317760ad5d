package repro.crowd

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Set-based precision / recall of the paper (§5.1, Metrics).
  *
  * Per item i: P_i = |Y_i ∩ Y*_i| / |Y*_i| (correct predicted / predicted),
  * R_i = |Y_i ∩ Y*_i| / |Y_i| (correct predicted / true). Dataset-level P, R
  * are plain averages over items. Items with an empty prediction contribute
  * P_i = 0 (R_i = 0) unless the truth is also empty, in which case both are 1.
  */
object Metrics {

  final case class PR(precision: Double, recall: Double) {
    def f1: Double =
      if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
    override def toString: String = f"P=$precision%.3f R=$recall%.3f"
  }

  /** Per-item precision for one prediction. */
  def itemPrecision(truth: Array[Int], predicted: Array[Int]): Double =
    if (predicted.isEmpty) { if (truth.isEmpty) 1.0 else 0.0 }
    else predicted.count(truth.contains).toDouble / predicted.length

  /** Per-item recall for one prediction. */
  def itemRecall(truth: Array[Int], predicted: Array[Int]): Double =
    if (truth.isEmpty) { if (predicted.isEmpty) 1.0 else 0.0 }
    else truth.count(predicted.contains).toDouble / truth.length

  /** Dataset-level precision/recall of a prediction map (item -> label set).
    * Items missing from `predicted` count as empty predictions.
    */
  def evaluate(ds: CrowdDataset, predicted: Map[Int, Array[Int]]): PR = {
    var sp = 0.0
    var sr = 0.0
    var i = 0
    while (i < ds.nItems) {
      val p = predicted.getOrElse(i, Array.emptyIntArray)
      sp += itemPrecision(ds.truth(i), p)
      sr += itemRecall(ds.truth(i), p)
      i += 1
    }
    PR(sp / ds.nItems, sr / ds.nItems)
  }

  /** DataFrame version: `truthDf` and `predDf` both have columns
    * (item: Int, labels: Array[Int]); returns a 1-row DataFrame with columns
    * (precision, recall). Items absent from `predDf` count as empty.
    */
  def evaluateDf(truthDf: DataFrame, predDf: DataFrame): DataFrame = {
    val joined = truthDf.as("t")
      .join(predDf.as("p"), col("t.item") === col("p.item"), "left")
      .select(
        col("t.labels").as("truth"),
        coalesce(col("p.labels"), array().cast("array<int>")).as("pred"))
    val withPr = joined.select(
      when(size(col("pred")) === 0,
        when(size(col("truth")) === 0, 1.0).otherwise(0.0))
        .otherwise(size(array_intersect(col("pred"), col("truth"))).cast("double") / size(col("pred")))
        .as("pi"),
      when(size(col("truth")) === 0,
        when(size(col("pred")) === 0, 1.0).otherwise(0.0))
        .otherwise(size(array_intersect(col("pred"), col("truth"))).cast("double") / size(col("truth")))
        .as("ri"))
    withPr.agg(avg("pi").as("precision"), avg("ri").as("recall"))
  }
}

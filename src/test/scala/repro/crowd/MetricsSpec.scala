package repro.crowd

import org.apache.spark.sql.functions.{col, round}
import repro.{Oracle, SparkSpec}

class MetricsSpec extends SparkSpec {
  import Metrics._

  test("itemPrecision: exact prediction scores 1") {
    assert(itemPrecision(Array(1, 2), Array(1, 2)) == 1.0)
  }
  test("itemPrecision: half-wrong prediction scores 0.5") {
    assert(itemPrecision(Array(1, 2), Array(1, 3)) == 0.5)
  }
  test("itemPrecision: empty prediction with non-empty truth scores 0") {
    assert(itemPrecision(Array(1), Array.empty) == 0.0)
  }
  test("itemPrecision: empty prediction with empty truth scores 1") {
    assert(itemPrecision(Array.empty, Array.empty) == 1.0)
  }
  test("itemRecall: full coverage scores 1") {
    assert(itemRecall(Array(1, 2), Array(1, 2, 3)) == 1.0)
  }
  test("itemRecall: half coverage scores 0.5") {
    assert(itemRecall(Array(1, 2), Array(2)) == 0.5)
  }
  test("itemRecall: empty truth with non-empty prediction scores 0") {
    assert(itemRecall(Array.empty, Array(1)) == 0.0)
  }
  test("PR f1 is the harmonic mean") {
    assert(math.abs(PR(0.5, 1.0).f1 - 2.0 / 3.0) < 1e-12)
    assert(PR(0.0, 0.0).f1 == 0.0)
  }

  private val ds = CrowdDataset("m", 4, 5, 2,
    truth = Array(Array(0, 1), Array(2), Array(3, 4), Array(1)),
    answers = Vector(Answer(0, 0, Array(0)), Answer(1, 0, Array(2)),
      Answer(2, 1, Array(3)), Answer(3, 1, Array(0))),
    workerTypes = Array(WorkerType.Reliable, WorkerType.Reliable))
  private val pred = Map(
    0 -> Array(0, 1),   // P=1,   R=1
    1 -> Array(2, 3),   // P=0.5, R=1
    2 -> Array(0))      // P=0,   R=0 ; item 3 missing => P=0, R=0

  test("evaluate averages per-item precision and recall over all items") {
    val pr = evaluate(ds, pred)
    assert(math.abs(pr.precision - (1.0 + 0.5 + 0.0 + 0.0) / 4) < 1e-12)
    assert(math.abs(pr.recall - (1.0 + 1.0 + 0.0 + 0.0) / 4) < 1e-12)
  }
  test("evaluate of the truth itself is perfect") {
    val perfect = (0 until ds.nItems).map(i => i -> ds.truth(i)).toMap
    val pr = evaluate(ds, perfect)
    assert(pr.precision == 1.0 && pr.recall == 1.0)
  }

  test("evaluate agrees with a DuckDB oracle over exploded label tables") {
    import spark.implicits._
    val rng = new scala.util.Random(33)
    val nItems = 40
    val truth = Array.fill(nItems)((0 until 8).filter(_ => rng.nextDouble() < 0.4).toArray)
    val prd = (0 until nItems).map(i =>
      i -> (0 until 8).filter(_ => rng.nextDouble() < 0.4).toArray).toMap
    // Exploded scalar views for the oracle (arrays are not comparable there).
    val truthFlat = truth.zipWithIndex.flatMap { case (t, i) => t.map(c => (i, c)) }.toSeq
      .toDF("item", "label")
    val predFlat = prd.toSeq.flatMap { case (i, p) => p.map(c => (i, c)) }.toDF("item", "label")
    val items = (0 until nItems).map(i => Tuple1(i)).toDF("item")
    val pr = evaluate(CrowdDataset("r", nItems, 8, 1, truth, Vector.empty, Array(WorkerType.Reliable)), prd)
    val local = Seq((pr.precision, pr.recall)).toDF("precision", "recall")
      .select(round(col("precision"), 6).as("precision"), round(col("recall"), 6).as("recall"))
    Oracle.assertEquivalent(
      local,
      """
      WITH inter AS (
        SELECT t.item AS item, COUNT(*) AS n_inter
        FROM truth_flat t JOIN pred_flat p
          ON t.item = p.item AND t.label = p.label
        GROUP BY t.item
      ), tcnt AS (
        SELECT item, COUNT(*) AS n_truth FROM truth_flat GROUP BY item
      ), pcnt AS (
        SELECT item, COUNT(*) AS n_pred FROM pred_flat GROUP BY item
      ), per_item AS (
        SELECT i.item,
          CASE WHEN pc.n_pred IS NULL THEN
            (CASE WHEN tc.n_truth IS NULL THEN 1.0 ELSE 0.0 END)
          ELSE COALESCE(n_inter, 0) * 1.0 / pc.n_pred END AS pi,
          CASE WHEN tc.n_truth IS NULL THEN
            (CASE WHEN pc.n_pred IS NULL THEN 1.0 ELSE 0.0 END)
          ELSE COALESCE(n_inter, 0) * 1.0 / tc.n_truth END AS ri
        FROM items i
        LEFT JOIN tcnt tc ON i.item = tc.item
        LEFT JOIN pcnt pc ON i.item = pc.item
        LEFT JOIN inter ON i.item = inter.item
      )
      SELECT ROUND(AVG(pi), 6) AS precision, ROUND(AVG(ri), 6) AS recall FROM per_item
      """,
      "truth_flat" -> truthFlat, "pred_flat" -> predFlat, "items" -> items)
  }
}

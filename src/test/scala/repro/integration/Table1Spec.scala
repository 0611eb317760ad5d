package repro.integration

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.MajorityVote
import repro.tables.Tables

/** The §2.1 motivating example (Table 1). */
class Table1Spec extends AnyFunSuite {

  test("the answer matrix has 5 workers, 4 items, 20 answers") {
    assert(Tables.table1Answers.size == 20)
    assert(Tables.table1Answers.map(_.worker).distinct.size == 5)
    assert(Tables.table1Answers.map(_.item).distinct.size == 4)
  }
  test("majority voting reproduces the paper's Majority column") {
    val mv = MajorityVote.aggregate(Tables.table1Answers)
    Tables.table1Majority.foreach { case (i, expect) =>
      assert(mv(i).sameElements(expect), s"item $i: ${mv(i).toSeq} vs ${expect.toSeq}")
    }
  }
  test("the paper's two MV failure modes are visible") {
    val mv = MajorityVote.aggregate(Tables.table1Answers)
    // (i) partially incorrect: label 4 (index 3) wrongly assigned to i1
    assert(mv(0).contains(3) && !Tables.table1Correct(0).contains(3))
    // (ii) partially incomplete: labels 1 and 3 (indices 0, 2) missing on i4
    assert(!mv(3).contains(0) && Tables.table1Correct(3).contains(0))
    assert(!mv(3).contains(2) && Tables.table1Correct(3).contains(2))
  }
  test("u3 answers identically for every item (uniform spammer)") {
    val u3 = Tables.table1Answers.filter(_.worker == 2)
    assert(u3.map(_.labels.toSeq).distinct.size == 1)
  }
  test("table1 rows report majority, CPA and correct sets 1-indexed") {
    val rows = Tables.table1()
    assert(rows.map(_.item) == Seq("i1", "i2", "i3", "i4"))
    assert(rows.head.correct == Set(5))
    assert(rows.head.majority == Set(4, 5))
    rows.foreach(r => r.cpa.foreach(c => assert(c >= 1 && c <= 5)))
  }
  test("CPA on the toy matrix yields a deterministic, plausible assignment") {
    // With 4 items and 5 workers there is too little data for the Bayesian
    // machinery to shine (the paper uses the example only to motivate the
    // model); we pin determinism and plausibility, not superiority.
    val a = Tables.table1()
    val b = Tables.table1()
    a.zip(b).foreach { case (x, y) => assert(x.cpa == y.cpa) }
    val voted = Tables.table1Answers.flatMap(_.labels).map(_ + 1).toSet
    a.foreach(r => assert(r.cpa.subsetOf(voted)))
    assert(a.count(_.cpa.nonEmpty) >= 3)
  }
}

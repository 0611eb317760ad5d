package repro.baselines

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
}

package repro.core

import repro.crowd.Answer

/** Small random answer sets for the degenerate-input specs. */
object TinyAnswers {

  /** Each worker answers each item with probability 0.6, with a random
    * non-empty label set; `silent` workers never answer.
    */
  def apply(nItems: Int, nWorkers: Int, nLabels: Int, silent: Set[Int] = Set.empty): Seq[Answer] = {
    val rng = new scala.util.Random(17)
    for {
      i <- 0 until nItems
      u <- 0 until nWorkers
      if !silent(u) && rng.nextDouble() < 0.6
    } yield {
      val ls = (0 until nLabels).filter(_ => rng.nextDouble() < 0.4)
      Answer(i, u, (if (ls.isEmpty) Seq(rng.nextInt(nLabels)) else ls).toArray)
    }
  }
}

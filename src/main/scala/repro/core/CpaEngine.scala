package repro.core

/** Data-pass abstraction for CPA inference (the MAP/REDUCE split of
  * Algorithm 3). The VI loop in [[CpaVi]] is engine-agnostic: the local
  * engine iterates a `Seq[Answer]` on the driver, the Spark engine
  * ([[repro.spark.CpaSpark]]) distributes the same per-answer kernels over
  * executors. Both call the identical [[CpaCore]] functions, so results
  * match up to floating-point summation order.
  */
trait CpaEngine {

  /** Number of answers (worker-item pairs with non-empty label sets). */
  def nAnswers: Long

  /** Mean number of labels per answer (anchors n̄ and the fp floor). */
  def meanAnswerSize: Double

  /** Candidate labels per item (labels voted by at least one worker). */
  def candidates(nItems: Int): Array[Array[Int]]

  /** MAP phase part 1 (Eq 2): fresh κ rows for every worker that has
    * answers; workers without answers keep their current row.
    */
  def computeKappa(
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]]

  /** MAP phase part 2 + REDUCE (Eq 6, Eq 15, truth-layer statistics):
    * per-answer sufficient statistics accumulated via [[CpaCore.accumulate]].
    */
  def computeStats(
      T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]],
      cand: Array[Array[Int]],
      yhat: Array[Array[Double]],
      d: CpaCore.Derived,
      sensMc: Array[Double],
      fpMc: Array[Double]): CpaCore.SuffStats

  /** Bootstrap λ statistic (Σ ϕ⁰ κ⁰ x) before the first iteration. */
  def bootstrapLambda(
      T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]],
      phi: Array[Array[Double]]): Array[Double]
}

/** Driver-local engine over an in-memory answer list: the whole answer set
  * of a [[CpaVi]] fit, or one batch of a [[CpaSvi]] stream. Every pass folds
  * the answers in list order through its [[CpaCore]] kernel.
  */
final class LocalEngine(answers: Seq[repro.crowd.Answer]) extends CpaEngine {
  override def nAnswers: Long = answers.size.toLong

  override val meanAnswerSize: Double = CpaCore.meanAnswerSize(answers)

  override def candidates(nItems: Int): Array[Array[Int]] =
    CpaCore.candidates(answers, nItems)

  override def computeKappa(kappa: Array[Array[Double]], phi: Array[Array[Double]],
      d: CpaCore.Derived): Array[Array[Double]] =
    CpaCore.kappaFromLogits(kappa,
      CpaCore.kappaLogits(answers.iterator, kappa.length, phi, d.dlam)(d.elnPi.clone()))

  override def computeStats(T: Int, M: Int, C: Int, I: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]],
      cand: Array[Array[Int]], yhat: Array[Array[Double]],
      d: CpaCore.Derived, sensMc: Array[Double], fpMc: Array[Double]): CpaCore.SuffStats = {
    val st = CpaCore.emptyStats(T, M, C, I)
    answers.foreach { a =>
      CpaCore.accumulate(st, a, kappa(a.worker), phi(a.item), d.dlam,
        cand(a.item), yhat(a.item), sensMc, fpMc)
    }
    st
  }

  override def bootstrapLambda(T: Int, M: Int, C: Int,
      kappa: Array[Array[Double]], phi: Array[Array[Double]]): Array[Double] = {
    val stat = new Array[Double](T * M * C)
    answers.foreach(a => CpaCore.accumulateLambda(stat, a.labels, phi(a.item), kappa(a.worker), C))
    stat
  }
}

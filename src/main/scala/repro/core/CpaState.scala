package repro.core

/** The variational state of one CPA fit and the one step that updates it:
  * the globals, ϕ, κ, the candidate-aligned soft truth ŷ with its per-item
  * sums Σ_c ŷ_ic, the per-item answer counts and the community coins. Batch
  * VI ([[CpaVi]], Algorithm 1) runs [[step]] with ω = 1 over all items; SVI
  * ([[CpaSvi]], Algorithm 2) runs it with ω_b over one batch. `cand`, `yhat`
  * and `nAns` are held, not copied: SVI grows their rows as answers arrive.
  *
  * The starting locals follow the ablations: with `noL` every item is its own
  * cluster (ϕ_i one-hot at i), with `noZ` every worker its own community (κ_u
  * one-hot at u), and neither is ever updated. Otherwise ϕ is `initPhi(T)`
  * and κ is [[CpaCore.initKappa]].
  */
final class CpaState(cfg: CpaConfig, nItems: Int, nWorkers: Int, nLabels: Int,
    cand: Array[Array[Int]], yhat: Array[Array[Double]], nAns: Array[Double])(
    initPhi: Int => Array[Array[Double]]) {
  val g: CpaCore.Globals = CpaCore.initGlobals(cfg, nItems, nWorkers, nLabels)
  private def oneHot(n: Int, k: Int) = Array.tabulate(n)(i => Array.tabulate(k)(j => if (j == i) 1.0 else 0.0))
  val phi: Array[Array[Double]] = if (cfg.noL) oneHot(nItems, g.T) else initPhi(g.T)
  /** Replaced, never written in place, by each κ pass. */
  var kappa: Array[Array[Double]] = if (cfg.noZ) oneHot(nWorkers, g.M) else CpaCore.initKappa(nWorkers, g.M, cfg.seed)
  private[core] val ySize: Array[Double] = yhat.map(_.sum)
  private val sensMc = Array.fill(g.M * nLabels)(CpaCore.SensStart)
  private val fpMc = Array.fill(g.M * nLabels)(CpaCore.FpStart)
  /** The vote rows the truth layer last read; null for items without answers. */
  var llr: Array[Array[Double]] = new Array[Array[Double]](nItems)

  /** One CPA step with rate `omega`, in the order of Hoffman et al. (2013,
    * "Stochastic Variational Inference", Alg. 1), locals before globals:
    *  1. [[CpaCore.derive]] from the current globals;
    *  2. the engine's κ pass (Eq 2) and statistics pass;
    *  3. the truth layer over the vote rows `votes(stats)`, kept as [[llr]];
    *  4. the community coins, blended with ω;
    *  5. ϕ of `items` (Eq 3 + answer term), blended with ω;
    *  6. the damped truth step on `truthItems`;
    *  7. the global step (Eq 4-7 / Eq 18-19) from the updated κ of `workers`
    *     and ϕ, ŷ of `items`, their statistics scaled up to the corpus by
    *     `ansScale`, `workerScale` and `itemScale`.
    * Returns (Σ |Δϕ|, Σ |Δŷ|) over the updated rows.
    */
  def step(engine: CpaEngine, omega: Double, meanAnswerSize: Double,
      items: Array[Int], truthItems: Array[Int], workers: Array[Int],
      ansScale: Double, workerScale: Double, itemScale: Double)(
      votes: CpaCore.SuffStats => Array[Array[Double]]): (Double, Double) = {
    val d = CpaCore.derive(g)
    if (!cfg.noZ) kappa = engine.computeKappa(kappa, phi, d)
    val st = engine.computeStats(g.T, g.M, g.C, nItems, kappa, phi, cand, yhat, d, sensMc, fpMc)
    llr = votes(st)
    val truth = CpaCore.truthLayer(g, phi, ySize, meanAnswerSize, llr, nAns)
    val (sens, fp) = CpaCore.communityCoins(st, meanAnswerSize)
    CpaCore.blend(sensMc, sens, omega)
    CpaCore.blend(fpMc, fp, omega)
    var dPhi = 0.0
    if (!cfg.noL) items.foreach { i =>
      dPhi += CpaCore.blend(phi(i), CpaCore.phiRow(i, st.aIt, cand(i), yhat(i), d), omega)
    }
    val dY = CpaCore.truthStep(truthItems, cand, yhat, phi, truth)
    truthItems.foreach(i => ySize(i) = yhat(i).sum)
    CpaCore.updateGlobals(g, cfg, omega, st.lamStat, ansScale, workers, kappa, workerScale,
      items, phi, cand(_), yhat(_), itemScale)
    (dPhi, dY)
  }

  /** The model of the current state after `iterations` steps, its truth
    * layer over [[llr]]. Every array is copied (an unseen item's llr row
    * stays null), so later steps leave the model as is.
    */
  def toModel(iterations: Int, meanAnswerSize: Double): CpaModel = {
    def copy(rows: Array[Array[Double]]) = rows.map(r => if (r == null) null else r.clone())
    new CpaModel(cfg, nItems, nWorkers, nLabels, g.copyOf(), copy(kappa), copy(phi),
      cand.map(_.clone()), copy(yhat),
      CpaCore.truthLayer(g, phi, ySize, meanAnswerSize, copy(llr), nAns.clone()),
      sensMc.clone(), fpMc.clone(), iterations)
  }
}

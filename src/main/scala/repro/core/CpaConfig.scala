package repro.core

/** Hyper-parameters of the CPA model (§3.2) and its inference (§3.3, §4.1).
  *
  * @param T        truncation level for item clusters τ (stick-breaking of
  *                 CRP(ε)); the paper notes it "can safely be set large" —
  *                 runtime is linear in T so we default to a moderate level
  * @param M        truncation level for worker communities π (CRP(α))
  * @param alpha    CRP concentration for worker communities
  * @param eps      CRP concentration for item clusters
  * @param lambda0  symmetric Dirichlet prior γ for community confusion ψ_tm
  * @param zeta0    symmetric Dirichlet prior η for cluster label dists φ_t
  * @param maxIter  maximum VI iterations (paper: ≤ 10 reaches 98% accuracy;
  *                 we allow more and stop on `tol`)
  * @param tol      VI convergence threshold: the fit stops once the mean
  *                 absolute change of the item-cluster posteriors ϕ is below
  *                 `tol` and that of the soft truth ŷ below 10·`tol`; under
  *                 `noL` (ϕ fixed) once the mean change of ŷ is below `tol`
  * @param forgetRate SVI forgetting rate r; ω_b = (1+b)^{-r}; the paper finds
  *                 r ∈ [0.85, 0.9] works best
  * @param batchFraction SVI batch size as a fraction of all answers
  * @param noZ      ablation "No Z" (§5.4): every worker is its own community
  * @param noL      ablation "No L" (§5.4): every item is its own cluster
  * @param seed     RNG seed for the (tiny) symmetry-breaking initialisation
  */
final case class CpaConfig(
    T: Int = 30,
    M: Int = 12,
    alpha: Double = 1.0,
    eps: Double = 1.0,
    lambda0: Double = 1.0,
    zeta0: Double = 0.1,
    maxIter: Int = 25,
    tol: Double = 1e-4,
    forgetRate: Double = 0.875,
    batchFraction: Double = 0.1,
    noZ: Boolean = false,
    noL: Boolean = false,
    seed: Long = 13L)

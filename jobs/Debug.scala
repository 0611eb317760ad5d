package repro.jobs

import repro.core.{CpaConfig, CpaCore, CpaVi}
import repro.crowd.Datasets

/** Development diagnostics for the CPA truth layer (not part of any table). */
object Debug {
  def main(args: Array[String]): Unit = {
    val name = if (args.nonEmpty) args(0) else "topic"
    val ds = Datasets.generate(name, if (args.length > 1) args(1).toDouble else 0.2)
    val m = CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, CpaConfig())

    // Cluster usage.
    val mass = new Array[Double](m.globals.T)
    for (i <- 0 until ds.nItems; t <- 0 until m.globals.T) mass(t) += m.phi(i)(t)
    println(s"cluster mass: ${mass.map(x => f"$x%.0f").mkString(",")}")
    println(s"nbar: ${m.lastStats.nbar.map(x => f"$x%.2f").mkString(",")}")

    // Purity: do items of the same generated truth-cluster co-locate?
    // (approximate via top truth label agreement within learned cluster)
    var tp0 = 0.0; var tllr = 0.0; var ts = 0.0; var tn = 0
    var fp0 = 0.0; var fllr = 0.0; var fs = 0.0; var fn = 0
    for (i <- 0 until ds.nItems) {
      val truth = ds.truth(i).toSet
      val labels = m.cand(i)
      val s = CpaCore.inclusionScores(i, labels, labels, m.phi(i), m.lastStats)
      val scale = CpaCore.evidenceScale(m.lastStats.nAns(i))
      for (j <- labels.indices) {
        val c = labels(j)
        val p0 = CpaCore.clusterPrior(c, m.phi(i), m.lastStats)
        val llr = scale * m.lastStats.llr(i)(j)
        if (truth(c)) { tp0 += p0; tllr += llr; ts += s(j); tn += 1 }
        else { fp0 += p0; fllr += llr; fs += s(j); fn += 1 }
      }
    }
    println(f"true cand:  n=$tn p0=${tp0 / tn}%.3f llr=${tllr / tn}%.2f s=${ts / tn}%.3f")
    println(f"false cand: n=$fn p0=${fp0 / fn}%.3f llr=${fllr / fn}%.2f s=${fs / fn}%.3f")
    // Community coin spread.
    val M = m.globals.M; val C = ds.nLabels
    for (mm <- 0 until M) {
      val sAvg = (0 until C).map(c => m.sensMc(mm * C + c)).sum / C
      val fAvg = (0 until C).map(c => m.fpMc(mm * C + c)).sum / C
      val sz = (0 until ds.nWorkers).count(u => m.communityOf(u) == mm)
      if (sz > 0) println(f"community $mm%2d size=$sz%3d sens=$sAvg%.2f fp=$fAvg%.2f")
    }
  }
}

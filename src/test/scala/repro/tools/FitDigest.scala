package repro.tools

import java.nio.ByteBuffer
import java.security.MessageDigest

import org.apache.spark.sql.SparkSession
import repro.core.{CpaConfig, CpaModel, CpaSvi, CpaVi, LocalEngine}
import repro.crowd.{Answer, Datasets}
import repro.spark.CpaSpark

/** Bit-identity probe: prints one line per fit of a fixed set of fits,
  * `name state=<hash> predictions=<hash> iterations=<n>`. The state hash is
  * the SHA-256 of the raw bits of every array of the fitted model: ϕ, κ, ŷ,
  * λ, ζ, ρ, υ, the community coins, φ̂, n̄, the llr rows, the answer counts
  * and the candidates. The predictions hash covers the predicted set of
  * every item.
  *
  * Run it on two versions of the program and `diff` the outputs: a change
  * that should not move any number must print the same lines.
  * {{{
  *   sbt "Test/runMain repro.tools.FitDigest" | grep -o 'fit .*'
  * }}}
  * The Spark fits run on `local[4]`, so their partitioning, and their bits,
  * do not depend on the machine's core count; they equal the `vi` fits of
  * the same replica and configuration (`default`, and `noZ`, which runs the
  * statistics pass without a κ pass), whose [[LocalEngine]] cuts the same
  * four slices. The `vi-1slice` fits fold all answers as one slice.
  */
object FitDigest {

  /** SHA-256 over a sequence of arrays, each written with its length (a
    * null row as length −1) so that shapes count as well as values.
    */
  private final class Hasher {
    private val md = MessageDigest.getInstance("SHA-256")
    private val buf = ByteBuffer.allocate(8)

    private def long(x: Long): Unit = { buf.clear(); buf.putLong(x); md.update(buf.array()) }

    def doubles(row: Array[Double]): Unit =
      if (row == null) long(-1L) else { long(row.length.toLong); row.foreach(x => long(java.lang.Double.doubleToRawLongBits(x))) }

    def ints(row: Array[Int]): Unit =
      if (row == null) long(-1L) else { long(row.length.toLong); row.foreach(x => long(x.toLong)) }

    def doubleRows(rows: Array[Array[Double]]): Unit = { long(rows.length.toLong); rows.foreach(doubles) }

    def intRows(rows: Array[Array[Int]]): Unit = { long(rows.length.toLong); rows.foreach(ints) }

    def hex: String = md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Hash of every array of `m`'s state. */
  def stateHash(m: CpaModel): String = {
    val h = new Hasher
    val g = m.globals
    val tl = m.lastStats
    Seq(m.phi, m.kappa, m.yhat).foreach(h.doubleRows)
    g.lambda.foreach(h.doubleRows)
    h.doubleRows(g.zeta)
    Seq(g.rho1, g.rho2, g.ups1, g.ups2, m.sensMc, m.fpMc).foreach(h.doubles)
    h.doubleRows(tl.phiHat)
    h.doubles(tl.nbar)
    h.doubleRows(tl.llr)
    h.doubles(tl.nAns)
    h.intRows(m.cand)
    h.hex
  }

  /** Hash of the predicted label set of every item. */
  def predictionsHash(m: CpaModel): String = {
    val h = new Hasher
    h.intRows(Array.tabulate(m.nItems)(m.predictItem))
    h.hex
  }

  private def line(name: String, m: CpaModel): String =
    s"fit $name state=${stateHash(m)} predictions=${predictionsHash(m)} iterations=${m.iterations}"

  def main(args: Array[String]): Unit = {
    val configs = Seq("default" -> CpaConfig(), "noL" -> CpaConfig(noL = true), "noZ" -> CpaConfig(noZ = true))
    for (name <- Seq("topic", "entity", "movie"); (cfgName, cfg) <- configs) {
      val ds = Datasets.generate(name, sf = 0.15)
      val tag = s"$name/$cfgName"
      println(line(s"$tag/vi", CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)))
      println(line(s"$tag/vi-1slice", CpaVi.fitEngine(new LocalEngine(ds.answers, 1), ds.answers,
        ds.nItems, ds.nWorkers, ds.nLabels, cfg)))
      val known = (0 until ds.nItems by 4).map(i => i -> ds.truth(i)).toMap
      println(line(s"$tag/vi-knownY", CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg, known)))
      for (seed <- 1L to 3L)
        println(line(s"$tag/svi-seed$seed", CpaSvi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg, seed)))
    }
    println(line("zero-answers/vi", CpaVi.fit(Seq.empty, 4, 3, 5)))
    // Item 1's one answer and one of item 2's carry no label.
    val unlabelled = Seq(Answer(0, 0, Array(1)), Answer(1, 1, Array()), Answer(2, 0, Array(0, 2)),
      Answer(2, 1, Array()))
    println(line("unlabelled/vi", CpaVi.fit(unlabelled, 3, 2, 3)))
    println(line("unlabelled/svi", CpaSvi.fit(unlabelled, 3, 2, 3, CpaConfig(batchFraction = 0.5))))

    val spark = SparkSession.builder().master("local[4]").appName("fit-digest")
      .config("spark.ui.enabled", "false").getOrCreate()
    try {
      for (name <- Seq("entity", "movie"); run <- 1 to 2) {
        val ds = Datasets.generate(name, sf = 0.15)
        println(line(s"$name/default/spark-$run", CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels)))
      }
      // A noZ fit runs the statistics pass alone, without a κ pass.
      for (name <- Seq("entity", "movie")) {
        val ds = Datasets.generate(name, sf = 0.15)
        println(line(s"$name/noZ/spark-1", CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels,
          CpaConfig(noZ = true))))
      }
    } finally spark.stop()
  }
}

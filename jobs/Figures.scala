package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.eval.Experiments
import repro.eval.Experiments._
import repro.tsj.Tsj.TsjConfig

/** The paper's evaluation figures at the reproduction's settings (DESIGN.md
  * §4): one runner and one markdown table per figure. The `bench/` suites
  * call the same runners and renderers and add their shape checks.
  *
  * Usage: spark-submit ... repro.jobs.Figures <fig> [n], where `<fig>` is
  * `fig1`, `fig2` (Figs 2 & 4), `fig3` (Figs 3 & 5), `fig6` or `fig7`, and
  * `n` is the corpus size (for `fig6`, the number of name changes).
  */
object Figures {

  val Seed = 7L
  val T = 0.1
  val M = 1000L
  val Workers: Seq[Int] = Seq(2, 4, 8, 16)
  val Ts: Seq[Double] = Seq(0.025, 0.075, 0.125, 0.175, 0.225)
  val Ms: Seq[Long] = Seq(100L, 250L, 500L, 1000L)

  /** Fig. 1: TSJ runtime vs #workers for both dedup strategies, median of 5. */
  def fig1(spark: SparkSession, n: Int): Seq[Fig1Row] =
    Experiments.fig1(spark, n, Seed, T, M, Workers, reps = 5)

  def fig1Table(n: Int, rows: Seq[Fig1Row]): String =
    s"Fig 1 — TSJ runtime (s) vs workers and dedup strategy (corpus n=$n, T=$T, M=$M)\n" +
      markdownTable(Seq("workers", "dedup", "seconds", "pairs"),
        rows.map(r => Seq(r.workers.toString, r.dedup, fmt(r.seconds), r.pairs.toString)))

  /** Figs. 2 & 4: runtime and #pairs/recall vs the NSLD threshold T. */
  def fig2(spark: SparkSession, n: Int): Seq[SweepRow] =
    Experiments.sweep(spark, n, Seed, Ts.map(t => t -> TsjConfig(t = t, maxTokenFreq = M)))

  def fig2Table(n: Int, rows: Seq[SweepRow]): String =
    s"Figs 2 & 4 — runtime and pairs/recall vs T (corpus n=$n, M=$M)\n" +
      markdownTable(Seq("T", "variant", "seconds", "pairs", "recall"),
        rows.map(r => Seq(fmt(r.param), r.variant, fmt(r.seconds),
                          r.pairs.toString, f"${r.recall}%.5f")))

  /** Figs. 3 & 5: runtime and #pairs/recall vs the max-frequency M. */
  def fig3(spark: SparkSession, n: Int): Seq[SweepRow] =
    Experiments.sweep(spark, n, Seed, Ms.map(m => m.toDouble -> TsjConfig(t = T, maxTokenFreq = m)))

  def fig3Table(n: Int, rows: Seq[SweepRow]): String =
    s"Figs 3 & 5 — runtime and pairs/recall vs M (corpus n=$n, T=$T)\n" +
      markdownTable(Seq("M", "variant", "seconds", "pairs", "recall"),
        rows.map(r => Seq(r.param.toLong.toString, r.variant, fmt(r.seconds),
                          r.pairs.toString, f"${r.recall}%.5f")))

  /** Fig. 6: ROC/AUC of NSLD vs the weighted fuzzy set measures. */
  def fig6(n: Int): Seq[Fig6Row] = Experiments.fig6(n, seed = 11)

  def fig6Table(n: Int, rows: Seq[Fig6Row]): String =
    s"Fig 6 — ROC of the distance measures on $n name changes (half legit, half fraud)\n" +
      markdownTable(Seq("measure", "AUC", "TPR@FPR=0.05", "TPR@FPR=0.10"),
        rows.map(r => Seq(r.measure, fmt(r.auc), fmt(r.tprAtFpr05), fmt(r.tprAtFpr10))))

  /** Fig. 7: TSJ vs HMJ runtime vs #workers; HMJ is DNF after 450 s. */
  def fig7(spark: SparkSession, n: Int): Seq[Fig7Row] =
    Experiments.fig7(spark, n, Seed, T, M, Workers, timeoutSec = 450)

  def fig7Table(n: Int, rows: Seq[Fig7Row]): String =
    s"Fig 7 — TSJ vs HMJ runtime (s) vs workers (corpus n=$n, T=$T, M=$M)\n" +
      markdownTable(Seq("workers", "algo", "seconds", "pairs", "finished"),
        rows.map(r => Seq(r.workers.toString, r.algo, fmt(r.seconds),
                          r.pairs.toString, r.finished.toString)))

  def main(args: Array[String]): Unit = {
    def n(default: Int): Int = JobSession.intArg(args, 1, default)
    def withSpark(name: String)(body: SparkSession => String): String = {
      val spark = JobSession.build(name)
      try body(spark) finally spark.stop()
    }
    val table = args.headOption match {
      case Some("fig1") => val k = n(100000); withSpark("fig1")(s => fig1Table(k, fig1(s, k)))
      case Some("fig2") => val k = n(30000); withSpark("fig2")(s => fig2Table(k, fig2(s, k)))
      case Some("fig3") => val k = n(30000); withSpark("fig3")(s => fig3Table(k, fig3(s, k)))
      case Some("fig6") => val k = n(10000); fig6Table(k, fig6(k))
      case Some("fig7") => val k = n(30000); withSpark("fig7")(s => fig7Table(k, fig7(s, k)))
      case _ =>
        System.err.println("usage: repro.jobs.Figures <fig1|fig2|fig3|fig6|fig7> [n]")
        sys.exit(2)
    }
    println(table)
  }
}

package repro.perf

import java.lang.management.ManagementFactory

import repro.core.{Levenshtein, Nld, TokenDistances, Tokenizer}

/** Times each public `core` function single-threaded on a frozen sample of
  * name pairs, after warm-up, in ns per pair, and counts how the sample
  * passes the three verification steps TSJ applies to a candidate: the
  * Lemma 6 aggregate-length filter, the token-length-histogram lower bound
  * and the exact NSLD check.
  */
object KernelProbe {
  private val WarmPasses = 3
  private val TimedPasses = 7

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocated(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Keeps results observable so the JIT cannot drop the timed calls. */
  @volatile private var sink = 0L

  /** Median ns per pair over timed passes, and allocated bytes per pair. */
  private def time(n: Int)(pass: => Long): (Double, Double) = {
    for (_ <- 1 to WarmPasses) sink += pass
    val ns = (1 to TimedPasses).map { _ =>
      val t = System.nanoTime(); sink += pass; (System.nanoTime() - t).toDouble / n
    }
    val a0 = allocated(); sink += pass
    (Report.median(ns), (allocated() - a0).toDouble / n)
  }

  def run(report: Report, names: IndexedSeq[(String, String)], t: Double): Unit = {
    val n = names.size
    val a = names.map(p => Tokenizer.tokenize(p._1))
    val b = names.map(p => Tokenizer.tokenize(p._2))

    def timed(metric: String)(perPair: Int => Long): (Double, Double) = {
      val ((ns, alloc), _) = report.span(metric) {
        time(n) { var s = 0L; var i = 0; while (i < n) { s += perPair(i); i += 1 }; s }
      }
      report.metric(metric + "_ns", ns, "ns")
      (ns, alloc)
    }

    timed("core.tokenize")(i => Tokenizer.tokenize(names(i)._1).size + Tokenizer.tokenize(names(i)._2).size)
    timed("core.ld") { i =>
      var s = 0L
      for (x <- a(i); y <- b(i)) s += Levenshtein.distance(x, y)
      s
    }
    timed("core.ld_bounded") { i =>
      var s = 0L
      for (x <- a(i); y <- b(i)) s += Levenshtein.bounded(x, y, Nld.maxLdFor(x.length, y.length, t))
      s
    }
    val (_, sldAlloc) = timed("core.sld_hungarian")(i => TokenDistances.sld(a(i), b(i)).toLong)
    timed("core.sld_greedy")(i => TokenDistances.sldGreedy(a(i), b(i)).toLong)
    val (_, lbAlloc) = timed("core.length_lb") { i =>
      java.lang.Double.doubleToRawLongBits(
        TokenDistances.nsldLengthLowerBound(a(i).map(_.length), b(i).map(_.length)))
    }
    report.metric("core.sld_alloc_b", sldAlloc, "B")
    report.metric("core.length_lb_alloc_b", lbAlloc, "B")

    // The filter predicates as TSJ's verifier states them (Lemma 6, then the
    // histogram bound, then exact NSLD); each ratio's base is the count
    // that reached that step.
    var lenPass = 0; var lbPass = 0; var verPass = 0; var greedyBelowExact = 0
    var i = 0
    while (i < n) {
      val la = Tokenizer.aggLength(a(i)); val lb = Tokenizer.aggLength(b(i))
      if (math.min(la, lb).toDouble / math.max(la, lb) >= (1.0 - t) - 1e-9) {
        lenPass += 1
        if (TokenDistances.nsldLengthLowerBound(a(i).map(_.length), b(i).map(_.length)) <= t + 1e-12) {
          lbPass += 1
          if (TokenDistances.nsld(a(i), b(i)) <= t) verPass += 1
        }
      }
      if (TokenDistances.sldGreedy(a(i), b(i)) < TokenDistances.sld(a(i), b(i))) greedyBelowExact += 1
      i += 1
    }
    report.count("core.sample_pairs", n)
    report.count("core.length_pass_pairs", lenPass)
    report.count("core.lb_pass_pairs", lbPass)
    report.metric("core.length_pass_frac", lenPass.toDouble / n, "ratio")
    report.metric("core.lb_pass_frac", if (lenPass > 0) lbPass.toDouble / lenPass else 0.0, "ratio")
    report.metric("core.verify_pass_frac", if (lbPass > 0) verPass.toDouble / lbPass else 0.0, "ratio")
    report.line(f"core sample: $n%,d pairs at t=$t; length filter passes $lenPass%,d of $n%,d, " +
      f"length LB passes $lbPass%,d of $lenPass%,d, exact NSLD passes $verPass%,d of $lbPass%,d")
    report.check("core greedy >= exact SLD on the sample",
      if (greedyBelowExact > 0) Seq(s"$greedyBelowExact pairs with greedy SLD below exact") else Nil)
  }
}

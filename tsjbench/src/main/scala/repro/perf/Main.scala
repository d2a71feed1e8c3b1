package repro.perf

import java.lang.management.ManagementFactory

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.core.{Nld, TokenDistances, Tokenizer}
import repro.jobs.JobSession
import repro.names.{Account, NameChange, NameGen}
import repro.passjoin.{PassJoin, TokenNldJoin}
import repro.tsj.Tsj
import repro.tsj.Tsj._

/** The TSJ benchmark. One run measures one workload for a fixed time in a
  * closed loop (one caller; the next operation starts once the previous one
  * is fully materialised) and prints one JSON result as its last line.
  *
  * Usage: Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  *
  * With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
  * times every layer from outside, around the benchmark's own calls into
  * `names`, `core`, `passjoin` and `tsj`, and writes the spans to `--out`.
  */
object Main {

  val DefaultSeed = 7L
  val CorpusSize = 30000
  val ScorePairs = 500000
  val SampleSize = 20000
  val WarmUpCorpusSize = 3000
  val WarmUpJoins = 2
  /** Set-up is repeated this many times per run and its median reported. */
  val SetupReps = 3

  sealed trait Workload { def name: String }

  /** A TSJ self-join of a `CorpusSize`-name NameGen corpus. */
  final case class JoinWorkload(name: String, cfg: TsjConfig) extends Workload

  /** Exact and greedy NSLD of `ScorePairs` name-change pairs, in the driver. */
  case object NsldScore extends Workload { val name = "nsld-score"; val t = 0.1 }

  /** The paper's defaults (Sec. V). */
  val TsjDefault = JoinWorkload("tsj-default", TsjConfig(
    t = 0.1, maxTokenFreq = 1000, matching = FuzzyTokenMatching,
    aligning = HungarianAligning, dedup = GroupingOnOneString))

  /** The wide end of both sweeps: fewer shared-token candidates, many more
    * similar-token pairs, and the other dedup strategy.
    */
  val TsjWide = JoinWorkload("tsj-wide", TsjConfig(
    t = 0.225, maxTokenFreq = 100, matching = FuzzyTokenMatching,
    aligning = HungarianAligning, dedup = GroupingOnBothStrings))

  val Workloads: Seq[Workload] = Seq(TsjDefault, TsjWide, NsldScore)

  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = kv.getOrElse("workload", TsjDefault.name)
    Args(
      Workloads.find(_.name == w).getOrElse(
        throw new IllegalArgumentException(s"unknown workload $w; one of ${Workloads.map(_.name).mkString(", ")}")),
      kv.get("seed").map(_.toLong).getOrElse(DefaultSeed),
      kv.get("seconds").map(_.toDouble).getOrElse(15.0),
      kv.get("trace").contains("1"),
      kv.getOrElse("out", "."))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val report = new Report
    report.line(s"workload ${args.workload.name}, seed ${args.seed}, ${args.seconds} s, " +
      s"trace ${if (args.trace) 1 else 0}, ${Runtime.getRuntime.availableProcessors} cpus")
    args.workload match {
      case w: JoinWorkload => runJoin(report, args, w)
      case NsldScore => runScore(report, args)
    }
    if (args.trace) {
      val f = new java.io.File(args.out, s"spans-${args.workload.name}-seed${args.seed}.json")
      f.getParentFile.mkdirs()
      java.nio.file.Files.writeString(f.toPath, report.spansJson)
      report.line(s"spans written to ${f.getPath}")
    }
    report.lines.foreach(println)
    report.problemLines.foreach(p => println(s"FAILED $p"))
    if (!args.trace) println(f"fail_frac ${report.failed.toDouble / math.max(1, report.attempted)}%.4f " +
      s"(${report.failed} failed of ${report.attempted} attempted)")
    println(report.resultJson)
    System.out.flush()
    System.exit(0)
  }

  private def seconds[T](body: => T): (T, Double) = {
    val t = System.nanoTime()
    val out = body
    (out, (System.nanoTime() - t) / 1e9)
  }

  /** Seconds from JVM start until now. */
  private def sinceJvmStart(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  /** Driver heap still in use after a full GC, in MB. */
  private def retainedHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** The closed loop: runs `op` until `secs` have passed, at least once;
    * returns each operation's wall-clock seconds.
    */
  private def closedLoop(secs: Double)(op: => Unit): Seq[Double] = {
    val deadline = System.nanoTime() + (secs * 1e9).toLong
    val times = mutable.ArrayBuffer.empty[Double]
    do times += seconds(op)._2 while (System.nanoTime() < deadline)
    times.toSeq
  }

  // ---------------------------------------------------------------- joins

  /** The corpus as the driver knows it, for checking results. */
  final class Corpus(val accounts: Vector[Account]) {
    val tokens: Array[Seq[String]] = {
      val a = new Array[Seq[String]](accounts.size)
      accounts.foreach(acc => a(acc.id.toInt) = Tokenizer.tokenize(acc.name))
      a
    }
  }

  final case class JoinInputs(corpus: Corpus, df: DataFrame, prepS: Seq[Double], genS: Seq[Double])

  /** Generates and caches the corpus `SetupReps` times; keeps the last. */
  def prepareCorpus(report: Report, spark: SparkSession, seed: Long): JoinInputs = {
    var df: DataFrame = null
    var accounts: Vector[Account] = null
    val gen = mutable.ArrayBuffer.empty[Double]
    val prep = (1 to SetupReps).map { _ =>
      if (df != null) df.unpersist(blocking = true)
      seconds {
        val (acc, g) = report.span("names.corpus")(NameGen.corpus(CorpusSize, seed))
        accounts = acc; gen += g.seconds
        df = spark.createDataFrame(acc).cache()
        df.count()
      }._2
    }
    JoinInputs(new Corpus(accounts), df, prep, gen.toSeq)
  }

  /** Code generation and JIT warm-up: one join of a small corpus (most of
    * the first join's cost is compiling, whatever the size), then
    * `WarmUpJoins` full joins; with fewer, the first timed joins still ran
    * slower than the rest. Returns the seconds spent.
    */
  def warmUp(report: Report, spark: SparkSession, args: Args, w: JoinWorkload, in: JoinInputs): Double =
    seconds {
      val small = spark.createDataFrame(NameGen.corpus(WarmUpCorpusSize, args.seed)).cache()
      Tsj.selfJoin(spark, small, w.cfg).collect()
      small.unpersist(blocking = true)
      for (_ <- 1 to WarmUpJoins)
        checkJoin(report, "warm-up join", w, args.seed, in.corpus, Tsj.selfJoin(spark, in.df, w.cfg).collect())
    }._2

  /** Checks one join result: every pair is a true match at its reported
    * NSLD, and at the default seed the result equals the stored digest.
    */
  def checkJoin(report: Report, what: String, w: JoinWorkload, seed: Long,
                corpus: Corpus, rows: Array[Row]): Unit = {
    val t = w.cfg.t
    val bad = mutable.ArrayBuffer.empty[String]
    rows.foreach { r =>
      val (i, j, d) = (r.getLong(0), r.getLong(1), r.getDouble(2))
      val exact = TokenDistances.nsld(corpus.tokens(i.toInt), corpus.tokens(j.toInt))
      if (!(i < j) || exact > t || math.abs(exact - d) > 1e-9)
        bad += s"pair ($i, $j) reported NSLD $d, exact $exact, t $t"
    }
    val (n, h) = Expected.digest(rows.iterator.map(r => (r.getLong(0), r.getLong(1))))
    if (seed == DefaultSeed) Expected.joinDigest.get(w.name).foreach { case (en, eh) =>
      if (n != en || h != eh) bad += f"digest count $n hash $h%016x, stored count $en hash $eh%016x"
    }
    report.check(what, bad.toSeq)
    report.line(f"$what: $n%,d pairs, digest $h%016x, ${bad.size} problems")
  }

  def runJoin(report: Report, args: Args, w: JoinWorkload): Unit = {
    val spark = JobSession.build("tsjbench")
    val sessionS = sinceJvmStart()
    val in = prepareCorpus(report, spark, args.seed)
    val warmS = warmUp(report, spark, args, w, in)
    report.line(s"config t=${w.cfg.t} M=${w.cfg.maxTokenFreq} ${w.cfg.matching} ${w.cfg.aligning} " +
      s"${w.cfg.dedup}; master ${spark.sparkContext.master}, " +
      s"${spark.conf.get("spark.sql.shuffle.partitions")} shuffle partitions, " +
      s"autoBroadcastJoinThreshold ${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")}")
    val setupS = sessionS + Report.median(in.prepS) + warmS
    report.line(f"set-up: session $sessionS%.3f s, corpus prep median ${Report.median(in.prepS)}%.3f s " +
      f"of [${in.prepS.map(v => f"$v%.3f").mkString(", ")}], warm-up join $warmS%.3f s")

    if (!args.trace) {
      val times = closedLoop(args.seconds) {
        val rows = Tsj.selfJoin(spark, in.df, w.cfg).collect()
        checkJoin(report, "timed join", w, args.seed, in.corpus, rows)
      }
      val heap = retainedHeapMb()
      report.line(Report.timing("join_s", times, "s"))
      report.metric("setup_s", setupS, "s")
      report.metric("op_s", Report.median(times), "s")
      report.metric("heap_mb", heap, "MB")
    } else {
      report.metric("names.corpus_s", Report.median(in.genS), "s")
      val sample = frozenSample(in.corpus, w.cfg.maxTokenFreq, args.seed)
      traceJoinLayers(report, spark, args, w, in, sample)
      KernelProbe.run(report, sample.pairs(in.corpus), w.cfg.t)
    }
    spark.stop()
  }

  /** Distinct shared-token candidates, computed in the driver from the
    * definition (names sharing a token held by at most `m` names), plus a
    * seeded sample of them.
    */
  final case class FrozenSample(allowed: IndexedSeq[String], candidates: Long, picked: Array[Long]) {
    def pairs(c: Corpus): IndexedSeq[(String, String)] =
      picked.toIndexedSeq.map(p => (c.accounts((p >>> 32).toInt).name, c.accounts((p & 0xffffffffL).toInt).name))
  }

  def frozenSample(corpus: Corpus, m: Long, seed: Long): FrozenSample = {
    val postings = mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]]
    var id = 0
    while (id < corpus.tokens.length) {
      corpus.tokens(id).distinct.foreach(tk => postings.getOrElseUpdate(tk, mutable.ArrayBuffer.empty) += id)
      id += 1
    }
    val allowed = postings.filter(_._2.size <= m)
    val buf = mutable.ArrayBuilder.make[Long]
    allowed.valuesIterator.foreach { ids =>
      var i = 0
      while (i < ids.size) {
        var j = i + 1
        while (j < ids.size) { buf += (ids(i).toLong << 32) | ids(j); j += 1 }
        i += 1
      }
    }
    val all = buf.result()
    java.util.Arrays.sort(all)
    var n = 0
    var k = 0
    while (k < all.length) { if (k == 0 || all(k) != all(k - 1)) { all(n) = all(k); n += 1 }; k += 1 }
    val rnd = new scala.util.Random(seed)
    val picked = Array.fill(math.min(SampleSize, n))(all(rnd.nextInt(n)))
    FrozenSample(allowed.keys.toIndexedSeq.sorted, n, picked)
  }

  /** Traces the `tsj` and `passjoin` layers of one join workload. */
  def traceJoinLayers(report: Report, spark: SparkSession, args: Args, w: JoinWorkload,
                      in: JoinInputs, fs: FrozenSample): Unit = {
    val t = w.cfg.t
    val sharedDistinct = fs.candidates
    val (plain, plainS) = seconds(Tsj.selfJoin(spark, in.df, w.cfg).collect())
    checkJoin(report, "untraced join", w, args.seed, in.corpus, plain)

    val collector = SparkTrace.install(spark)

    // tsj: one traced join, its stages credited to job group "tsj".
    val (tsjRows, tsjSpan) = report.span("tsj.join") {
      val df = Tsj.selfJoin(spark, in.df, w.cfg)
      val rows = SparkTrace.inGroup(spark, "tsj")(df.collect())
      SparkTrace.drain(spark)
      (rows, SparkTrace.executedNodes(df), collector.stats("tsj"))
    }
    val (rows, nodes, st) = tsjRows
    val tracedS = tsjSpan.seconds
    checkJoin(report, "traced join", w, args.seed, in.corpus, rows)
    stageSpans(report, tsjSpan, st)
    val allowedTokens = SparkTrace.filterRows(nodes, "freq").foldLeft(0L)(math.max)
    val shared = SparkTrace.nodesJoinRows(nodes, Seq("token"), Seq("ida", "idb")).sum
    val similar = SparkTrace.nodesJoinRows(nodes, Seq("t2"), Seq("ida", "idb")).sum
    val verifyIn = SparkTrace.topJoinRows(nodes)
    report.count("tsj.allowed_tokens", allowedTokens)
    report.count("tsj.input_rows_scanned", SparkTrace.inMemoryScanRows(nodes))
    report.count("tsj.cand_shared", shared)
    report.count("tsj.cand_shared_distinct", sharedDistinct)
    report.count("tsj.cand_similar", similar)
    report.count("tsj.verify_in", verifyIn)
    report.count("tsj.pairs_out", rows.length)
    report.metric("tsj.verify_yield", rows.length.toDouble / math.max(1L, verifyIn), "ratio")
    report.metric("tsj.shuffle_mb", st.shuffleWriteMb, "MB")
    report.metric("tsj.shuffle_mb_max_exchange", st.maxExchangeMb, "MB")
    report.metric("tsj.task_s", st.taskS, "s")
    report.metric("tsj.gc_s", st.gcS, "s")
    report.metric("tsj.max_task_skew", st.maxTaskSkew, "ratio")
    report.count("tsj.max_reducer_rows", st.maxReducerRows)
    report.count("tsj.stages", st.stages)
    report.count("tsj.tasks", st.tasks)
    report.metric("tsj.driver_s", math.max(0.0, tracedS - st.stageBusyS), "s")
    report.metric("trace.overhead_s", tracedS - plainS, "s")
    report.line(f"tsj: untraced join $plainS%.3f s, traced join $tracedS%.3f s; " +
      f"shuffle read ${st.shuffleReadMb}%.1f MB, fetch wait ${st.fetchWaitS}%.3f s, " +
      f"spill ${st.spillMb}%.1f MB, longest task ${st.maxTaskS}%.3f s; " +
      f"verify yield ${rows.length}%,d of $verifyIn%,d")

    // passjoin: the token NLD join on the same allowed tokens, called directly.
    val allowed = fs.allowed
    val ((indexChunks, probeChunks), _) = report.span("passjoin.chunks") {
      (allowed.iterator.map(PassJoin.indexChunks(_, t).size.toLong).sum,
       allowed.iterator.map(PassJoin.probeChunks(_, t).size.toLong).sum)
    }
    import spark.implicits._
    val tokDf = allowed.toDF("token").cache()
    tokDf.count()
    val (pj, pjSpan) = report.span("passjoin.join") {
      val df = TokenNldJoin.selfJoin(spark, tokDf, t)
      val rows = SparkTrace.inGroup(spark, "passjoin")(df.collect())
      SparkTrace.drain(spark)
      (rows, SparkTrace.executedNodes(df), collector.stats("passjoin"))
    }
    val (simRows, pjNodes, pst) = pj
    stageSpans(report, pjSpan, pst)
    tokDf.unpersist()
    val badSim = simRows.filterNot(r => Nld.nld(r.getString(0), r.getString(1)) <= t)
    report.check("token NLD join", badSim.take(5).map(r => s"token pair (${r.getString(0)}, ${r.getString(1)}) above t").toSeq)
    val sig = SparkTrace.nodesJoinRows(pjNodes, Seq("chunk", "segIdx", "lenY"), Nil).sum
    val cand = SparkTrace.topAggregateRows(pjNodes)
    report.metric("passjoin.join_s", pjSpan.seconds, "s")
    report.count("passjoin.index_chunks", indexChunks)
    report.count("passjoin.probe_chunks", probeChunks)
    report.count("passjoin.sig_matches", sig)
    report.count("passjoin.cand_pairs", cand)
    report.count("passjoin.similar_pairs", simRows.length)
    report.metric("passjoin.verify_yield", simRows.length.toDouble / math.max(1L, cand), "ratio")
    report.metric("passjoin.shuffle_mb", pst.shuffleWriteMb, "MB")
    report.metric("passjoin.task_s", pst.taskS, "s")
    spark.sparkContext.removeSparkListener(collector)

    if (args.seed == DefaultSeed) Expected.selfTests.get(w.name).foreach { e =>
      report.selfTest(s"${w.name} allowed tokens", allowedTokens, e.allowedTokens)
      report.selfTest(s"${w.name} driver-side allowed tokens", allowed.size, e.allowedTokens)
      report.selfTest(s"${w.name} distinct shared candidates", sharedDistinct, e.sharedDistinct)
      report.selfTest(s"${w.name} similar token pairs", simRows.length, e.similarTokenPairs)
      report.selfTest(s"${w.name} result pairs", rows.length, e.resultPairs)
    }
  }

  private def stageSpans(report: Report, parent: Span, st: GroupStats): Unit = {
    val base = System.currentTimeMillis() - report.nowMs
    st.stageSpans.foreach { case (id, sub, done, tasks) =>
      report.addSpan(parent.id, s"stage $id", sub - base, done - base, Seq("tasks" -> tasks.toDouble))
    }
  }

  // ------------------------------------------------------------- scoring

  final class ScoreInputs(val a: Array[Seq[String]], val b: Array[Seq[String]])

  /** Pairs for `nsld-score`: the Fig. 6 name-change generator, whose own
    * seed is the run seed plus 4, so the default seed 7 scores Fig. 6's seed 11.
    */
  def scorePairs(report: Report, seed: Long): (Vector[NameChange], Double) = {
    val (p, span) = report.span("names.nameChangePairs")(NameGen.nameChangePairs(ScorePairs, seed + 4))
    (p, span.seconds)
  }

  def runScore(report: Report, args: Args): Unit = {
    val mainS = sinceJvmStart()
    var in: ScoreInputs = null
    var pairs: Vector[NameChange] = null
    val gen = mutable.ArrayBuffer.empty[Double]
    val prep = (1 to SetupReps).map { _ =>
      in = null; pairs = null
      seconds {
        val (p, g) = scorePairs(report, args.seed)
        gen += g; pairs = p
        in = new ScoreInputs(p.iterator.map(c => Tokenizer.tokenize(c.oldName)).toArray,
                             p.iterator.map(c => Tokenizer.tokenize(c.newName)).toArray)
      }._2
    }
    val n = in.a.length
    val exact = new Array[Double](n)
    var lastSums = (0.0, 0.0)

    /** One pass: exact NSLD of every pair, then greedy, checked. */
    def pass(): (Double, Double) = {
      val (sumE, exactS) = seconds {
        var s = 0.0; var i = 0
        while (i < n) { exact(i) = TokenDistances.nsld(in.a(i), in.b(i)); s += exact(i); i += 1 }
        s
      }
      val ((sumG, below), greedyS) = seconds {
        var s = 0.0; var bad = 0; var i = 0
        while (i < n) {
          val g = TokenDistances.nsldGreedy(in.a(i), in.b(i))
          if (g < exact(i) - 1e-12) bad += 1
          s += g; i += 1
        }
        (s, bad)
      }
      val problems = mutable.ArrayBuffer.empty[String]
      if (below > 0) problems += s"$below pairs with greedy NSLD below exact"
      if (args.seed == DefaultSeed) {
        val (eE, eG) = Expected.scoreChecksum
        if (math.abs(sumE - eE) > 1e-6 || math.abs(sumG - eG) > 1e-6)
          problems += f"checksums exact $sumE%.9f greedy $sumG%.9f, stored $eE%.9f $eG%.9f"
      }
      report.check("scoring pass", problems.toSeq)
      lastSums = (sumE, sumG)
      (exactS, greedyS)
    }

    val (_, warmS) = seconds(pass())
    val setupS = mainS + Report.median(prep) + warmS
    report.line(f"set-up: JVM $mainS%.3f s, pair generation + tokenization median ${Report.median(prep)}%.3f s " +
      f"of [${prep.map(v => f"$v%.3f").mkString(", ")}], warm-up pass $warmS%.3f s")

    if (!args.trace) {
      val exactT = mutable.ArrayBuffer.empty[Double]
      val greedyT = mutable.ArrayBuffer.empty[Double]
      val times = closedLoop(args.seconds) {
        val (e, g) = pass(); exactT += e; greedyT += g
      }
      val heap = retainedHeapMb()
      report.line(Report.timing("score pass", times, "s"))
      report.line(f"score_pairs_per_s ${n / Report.median(exactT.toSeq)}%.1f, " +
        f"greedy_pairs_per_s ${n / Report.median(greedyT.toSeq)}%.1f over $n%,d pairs; " +
        f"checksums exact ${lastSums._1}%.9f greedy ${lastSums._2}%.9f")
      report.metric("setup_s", setupS, "s")
      report.metric("op_s", Report.median(times), "s")
      report.metric("heap_mb", heap, "MB")
    } else {
      report.metric("names.corpus_s", Report.median(gen.toSeq), "s")
      val rnd = new scala.util.Random(args.seed)
      val sample = IndexedSeq.fill(SampleSize)(pairs(rnd.nextInt(n))).map(c => (c.oldName, c.newName))
      KernelProbe.run(report, sample, NsldScore.t)
      // The join layers are traced too, at the paper's defaults on this
      // seed's corpus, so every layer metric has a value on every workload.
      in = null; pairs = null
      val spark = JobSession.build("tsjbench")
      val jin = prepareCorpus(report, spark, args.seed)
      warmUp(report, spark, args, TsjDefault, jin)
      val fs = frozenSample(jin.corpus, TsjDefault.cfg.maxTokenFreq, args.seed)
      traceJoinLayers(report, spark, args, TsjDefault, jin, fs)
      spark.stop()
    }
  }
}

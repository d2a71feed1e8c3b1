package repro.perf

import scala.collection.mutable

/** A span of the traced run: one call into a layer, or one Spark stage it
  * caused. Times are milliseconds since the run started.
  */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      attrs: Seq[(String, Double)]) {
  def seconds: Double = (endMs - startMs) / 1e3
}

/** Everything one run reports: named metrics with units, the human-readable
  * lines printed before the result, and (traced runs only) the spans.
  */
final class Report {
  private val t0 = System.nanoTime()
  val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val lines = mutable.ArrayBuffer.empty[String]
  val spans = mutable.ArrayBuffer.empty[Span]
  var attempted = 0
  var failed = 0
  private val problems = mutable.ArrayBuffer.empty[String]

  def nowMs: Double = (System.nanoTime() - t0) / 1e6

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def count(name: String, n: Long): Unit = metric(name, n.toDouble, "count")

  def line(s: String): Unit = lines += s

  /** Records one checked operation; a failed one carries its reasons. */
  def check(what: String, failures: Seq[String]): Unit = {
    attempted += 1
    if (failures.nonEmpty) {
      failed += 1
      problems ++= failures.take(5).map(f => s"$what: $f")
    }
  }

  /** A failed benchmark self-test makes the whole run incorrect. */
  private var selfTestOk = true
  def selfTest(name: String, got: Long, want: Long): Unit = {
    val ok = got == want
    if (!ok) { selfTestOk = false; problems += s"self-test $name: got $got, want $want" }
    line(f"self-test $name%-34s got $got%,d want $want%,d ${if (ok) "ok" else "MISMATCH"}")
  }

  /** Times `body` as a top-level span and returns its result. */
  def span[T](name: String)(body: => T): (T, Span) = {
    val start = nowMs
    val out = body
    (out, addSpan(0, name, start, nowMs, Nil))
  }

  def addSpan(parent: Int, name: String, startMs: Double, endMs: Double,
              attrs: Seq[(String, Double)]): Span = {
    val s = Span(spans.size + 1, parent, name, startMs, endMs, attrs)
    spans += s
    s
  }

  def correct: Boolean = failed == 0 && selfTestOk

  def problemLines: Seq[String] = problems.toSeq

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"; case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"; case c => c.toString
    } + "\""

  /** The result object: the last line the benchmark prints. */
  def resultJson: String = {
    val ms = metrics.map { case (k, (v, u)) => s"${str(k)}: {\"value\": ${num(v)}, \"unit\": ${str(u)}}" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  def spansJson: String = spans.map { s =>
    val a = s.attrs.map { case (k, v) => s"${str(k)}: ${num(v)}" }.mkString(", ")
    s"""{"id": ${s.id}, "parent": ${s.parent}, "name": ${str(s.name)}, "start_ms": ${num(s.startMs)}, "end_ms": ${num(s.endMs)}, "attrs": {$a}}"""
  }.mkString("[\n", ",\n", "\n]\n")
}

object Report {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it. */
  def supportedPercentile(n: Int): String =
    if (n < 20) "none (needs 20 samples for p50)"
    else s"p${math.floor(100.0 * (1.0 - 10.0 / n)).toInt}"

  /** A timing record: its median, sample count and supported percentile. */
  def timing(name: String, samples: Seq[Double], unit: String): String =
    f"$name%-22s median ${median(samples)}%.4f $unit over ${samples.size} samples " +
      s"[${samples.map(v => f"$v%.3f").mkString(", ")}]; highest supported percentile: ${supportedPercentile(samples.size)}"
}

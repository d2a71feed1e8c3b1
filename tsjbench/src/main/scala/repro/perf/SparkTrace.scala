package repro.perf

import scala.collection.mutable

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.{FilterExec, SparkPlan}
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.aggregate.HashAggregateExec
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ReusedExchangeExec
import org.apache.spark.sql.execution.joins.BaseJoinExec

/** What the Spark scheduler reports for the stages of one job group. */
final case class GroupStats(
    stages: Int, tasks: Int, taskS: Double, gcS: Double, fetchWaitS: Double,
    shuffleWriteMb: Double, shuffleReadMb: Double, maxExchangeMb: Double,
    spillMb: Double, maxTaskS: Double, maxTaskSkew: Double, maxReducerRows: Long,
    stageBusyS: Double, stageSpans: Seq[(Int, Long, Long, Int)])

/** Outside-in Spark collector: a listener that credits every task to the job
  * group that was active when its job was submitted. Each traced call runs
  * under its own job group, so its stages land in its own span.
  */
final class StageCollector extends SparkListener {
  private final class StageAgg(val group: String) {
    var tasks = 0; var runMs = 0L; var gcMs = 0L; var fetchWaitMs = 0L
    var writeB = 0L; var readB = 0L; var spillB = 0L; var maxReducerRows = 0L
    val durationsMs = mutable.ArrayBuffer.empty[Long]
    var submitted = 0L; var completed = 0L
  }
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val stages = mutable.LinkedHashMap.empty[Int, StageAgg]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageIds.foreach(stageGroup(_) = g)
  }

  private def agg(stageId: Int): StageAgg =
    stages.getOrElseUpdate(stageId, new StageAgg(stageGroup.getOrElse(stageId, "")))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val a = agg(e.stageId)
      a.tasks += 1
      a.runMs += m.executorRunTime
      a.gcMs += m.jvmGCTime
      a.fetchWaitMs += m.shuffleReadMetrics.fetchWaitTime
      a.readB += m.shuffleReadMetrics.totalBytesRead
      a.writeB += m.shuffleWriteMetrics.bytesWritten
      a.spillB += m.diskBytesSpilled
      a.maxReducerRows = math.max(a.maxReducerRows, m.shuffleReadMetrics.recordsRead)
      a.durationsMs += e.taskInfo.duration
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val a = agg(e.stageInfo.stageId)
    a.submitted = e.stageInfo.submissionTime.getOrElse(0L)
    a.completed = e.stageInfo.completionTime.getOrElse(0L)
  }

  /** Totals over the stages of `group`; call after [[SparkTrace.drain]]. */
  def stats(group: String): GroupStats = synchronized {
    val ss = stages.values.filter(_.group == group).toSeq
    val mb = 1024.0 * 1024.0
    val skews = ss.filter(_.durationsMs.size >= 2).map { a =>
      val d = a.durationsMs.sorted
      d.last.toDouble / math.max(1L, d(d.size / 2))
    }
    GroupStats(
      stages = ss.size,
      tasks = ss.map(_.tasks).sum,
      taskS = ss.map(_.runMs).sum / 1e3,
      gcS = ss.map(_.gcMs).sum / 1e3,
      fetchWaitS = ss.map(_.fetchWaitMs).sum / 1e3,
      shuffleWriteMb = ss.map(_.writeB).sum / mb,
      shuffleReadMb = ss.map(_.readB).sum / mb,
      maxExchangeMb = (0L +: ss.map(_.writeB)).max / mb,
      spillMb = ss.map(_.spillB).sum / mb,
      maxTaskS = (0L +: ss.flatMap(_.durationsMs)).max / 1e3,
      maxTaskSkew = (1.0 +: skews).max,
      maxReducerRows = (0L +: ss.map(_.maxReducerRows)).max,
      stageBusyS = busySeconds(ss.map(a => (a.submitted, a.completed))),
      stageSpans = stages.toSeq.collect { case (id, a) if a.group == group =>
        (id, a.submitted, a.completed, a.tasks) })
  }

  /** Length of the union of the stage intervals: time some stage was running. */
  private def busySeconds(iv: Seq[(Long, Long)]): Double = {
    var total = 0L; var end = Long.MinValue
    for ((s, e) <- iv.filter(x => x._1 > 0 && x._2 >= x._1).sortBy(_._1)) {
      if (s >= end) { total += e - s; end = e }
      else if (e > end) { total += e - end; end = e }
    }
    total / 1e3
  }
}

object SparkTrace {

  def install(spark: SparkSession): StageCollector = {
    val c = new StageCollector
    spark.sparkContext.addSparkListener(c)
    c
  }

  def drain(spark: SparkSession): Unit = ListenerBusAccess.drain(spark.sparkContext)

  /** Runs `body` with every job it submits tagged with job group `group`. */
  def inGroup[T](spark: SparkSession, group: String)(body: => T): T = {
    val sc = spark.sparkContext
    sc.setJobGroup(group, group, interruptOnCancel = false)
    try body finally sc.clearJobGroup()
  }

  /** Every node of the executed physical plan, descending through adaptive
    * query stages. A reused exchange is listed but not descended into: its
    * subtree's metrics belong to the exchange it reuses.
    */
  def planNodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => planNodes(a.executedPlan)
    case q: QueryStageExec => q +: planNodes(q.plan)
    case r: ReusedExchangeExec => Seq(r)
    case other => other +: (other.children ++ other.subqueries).flatMap(planNodes)
  }

  def executedNodes(df: DataFrame): Seq[SparkPlan] = planNodes(df.queryExecution.executedPlan)

  def rowsOut(p: SparkPlan): Long = p.metrics.get("numOutputRows").map(_.value).getOrElse(0L)

  def joinKeys(j: BaseJoinExec): Seq[String] = j.leftKeys.flatMap(_.references.map(_.name))

  /** Rows out of each join whose left keys are exactly `keys` and whose
    * output has every column of `outputs`.
    */
  def nodesJoinRows(nodes: Seq[SparkPlan], keys: Seq[String], outputs: Seq[String]): Seq[Long] =
    nodes.collect {
      case j: BaseJoinExec if joinKeys(j) == keys && outputs.forall(c => j.output.exists(_.name == c)) =>
        rowsOut(j)
    }

  /** The join closest to the plan root (the first one in pre-order). */
  def topJoinRows(nodes: Seq[SparkPlan]): Long =
    nodes.collectFirst { case j: BaseJoinExec => rowsOut(j) }.getOrElse(0L)

  /** The aggregate closest to the plan root. */
  def topAggregateRows(nodes: Seq[SparkPlan]): Long =
    nodes.collectFirst { case a: HashAggregateExec => rowsOut(a) }.getOrElse(0L)

  /** Rows out of filters whose condition references column `col`. */
  def filterRows(nodes: Seq[SparkPlan], col: String): Seq[Long] =
    nodes.collect { case f: FilterExec if f.condition.references.exists(_.name == col) => rowsOut(f) }

  def inMemoryScanRows(nodes: Seq[SparkPlan]): Long =
    nodes.collect { case s: InMemoryTableScanExec => rowsOut(s) }.sum
}

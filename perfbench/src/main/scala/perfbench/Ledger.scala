package perfbench

import org.apache.spark.{ListenerDrain, SparkContext, Success}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work attributed to one job group. Times are epoch milliseconds,
  * the clock Spark stamps job events with. */
final class GroupStats {
  var jobs = 0L
  var tasks = 0L
  var failedTasks = 0L
  var taskBusyMs = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L
  val jobIntervals: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty
}

/** Counts Spark jobs per job group — the only listener of a timed run.
  * Jobs submitted outside any group are kept under the empty group. */
class JobCounter extends SparkListener {
  protected val groups: mutable.Map[String, GroupStats] = mutable.HashMap.empty

  protected def groupOf(e: SparkListenerJobStart): String =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    groups.getOrElseUpdate(groupOf(e), new GroupStats).jobs += 1
  }

  /** Stats of `group` once every event submitted so far is delivered. */
  def stats(sc: SparkContext, group: String): GroupStats = {
    ListenerDrain(sc)
    synchronized(groups.getOrElse(group, new GroupStats))
  }

  /** Every group's stats once every event submitted so far is delivered. */
  def snapshot(sc: SparkContext): Map[String, GroupStats] = {
    ListenerDrain(sc)
    synchronized(groups.toMap)
  }
}

/** The traced run's listener: also job intervals and per-task busy time,
  * failures and shuffle output, attributed to the group of the job whose
  * stage ran the task. */
final class Ledger extends JobCounter {
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val jobStart = mutable.HashMap.empty[Int, (String, Long)]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    super.onJobStart(e)
    val g = groupOf(e)
    e.stageIds.foreach(stageGroup(_) = g)
    jobStart(e.jobId) = (g, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach { case (g, t0) =>
      groups.getOrElseUpdate(g, new GroupStats).jobIntervals += ((t0, e.time))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val g = groups.getOrElseUpdate(stageGroup.getOrElse(e.stageId, ""), new GroupStats)
    g.tasks += 1
    if (e.reason != Success) g.failedTasks += 1
    g.taskBusyMs += e.taskInfo.duration
    Option(e.taskMetrics).foreach { m =>
      g.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      g.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }
}

package perfbench

import org.apache.spark.scheduler._

import scala.collection.mutable

/** Spark work of one job group: jobs, stages and tasks launched, summed
  * task run time and GC time, and shuffle bytes written and read.
  */
final case class Work(
    jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
    busyMs: Long = 0, gcMs: Long = 0, shuffleWriteB: Long = 0, shuffleReadB: Long = 0,
) {
  def +(o: Work): Work = Work(jobs + o.jobs, stages + o.stages, tasks + o.tasks,
    busyMs + o.busyMs, gcMs + o.gcMs, shuffleWriteB + o.shuffleWriteB,
    shuffleReadB + o.shuffleReadB)
}

/** Spark work per job group, counted by a listener on the public
  * `SparkContext` API. The benchmark puts every statement in its own job
  * group, so the counts are that statement's jobs, stages and tasks.
  */
final class SparkCounters extends SparkListener {

  private val work       = mutable.HashMap.empty[String, Work]
  private val stageGroup = mutable.HashMap.empty[Int, String]
  private var running    = 0
  private var lastEvent  = 0L

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")

  private def add(g: String)(f: Work => Work): Unit = {
    lastEvent = System.nanoTime()
    work.update(g, f(work.getOrElse(g, Work())))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = groupOf(e.properties)
    running += 1
    add(g)(w => w.copy(jobs = w.jobs + 1))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    lastEvent = System.nanoTime()
    running -= 1
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val g = groupOf(e.properties)
    stageGroup(e.stageInfo.stageId) = g
    add(g)(w => w.copy(stages = w.stages + 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val g = stageGroup.getOrElse(e.stageId, "")
    val m = e.taskMetrics
    add(g) { w =>
      if (m == null) w.copy(tasks = w.tasks + 1)
      else w.copy(
        tasks = w.tasks + 1,
        busyMs = w.busyMs + m.executorRunTime,
        gcMs = w.gcMs + m.jvmGCTime,
        shuffleWriteB = w.shuffleWriteB + m.shuffleWriteMetrics.bytesWritten,
        shuffleReadB = w.shuffleReadB + m.shuffleReadMetrics.totalBytesRead)
    }
  }

  /** Wait until every started job has ended and the bus has been quiet
    * for `quietMs`: a finished action has posted all its events, and the
    * bus delivers them in order.
    */
  def drain(quietMs: Long = 100, timeoutMs: Long = 10000): Unit = {
    val deadline = System.nanoTime() + timeoutMs * 1000000L
    def settled = synchronized(running == 0 && System.nanoTime() - lastEvent > quietMs * 1000000L)
    while (!settled && System.nanoTime() < deadline) Thread.sleep(5)
  }

  def of(group: String): Work = synchronized(work.getOrElse(group, Work()))
}

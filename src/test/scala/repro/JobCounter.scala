package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

/** Records the call site of each job of one job group, in start order;
  * `drain` waits for the listener bus as perfbench's
  * `SparkCounters.drain` does.
  */
final class JobCounter(group: String) extends SparkListener {
  private val running   = scala.collection.mutable.Set.empty[Int]
  private var sites     = Vector.empty[String]
  private var lastEvent = System.nanoTime()
  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
      sites :+= e.stageInfos.maxBy(_.stageId).name
      running += e.jobId; lastEvent = System.nanoTime()
    }
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (running.remove(e.jobId)) lastEvent = System.nanoTime()
  }
  def drain(): Vector[String] = {
    val deadline = System.nanoTime() + 10000000000L
    def settled = synchronized(running.isEmpty && System.nanoTime() - lastEvent > 100000000L)
    while (!settled && System.nanoTime() < deadline) Thread.sleep(5)
    synchronized(sites)
  }
}

object JobCounter {

  /** Call sites of the jobs `body` launches in job group `group`, with
    * adaptive execution off, as perfbench runs.
    */
  def sites(spark: SparkSession, group: String)(body: => Any): Vector[String] = {
    val sc       = spark.sparkContext
    val adaptive = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", false)
    try {
      val counter = new JobCounter(group)
      sc.addSparkListener(counter)
      sc.setJobGroup(group, "job count")
      try body
      finally sc.clearJobGroup()
      try counter.drain() finally sc.removeSparkListener(counter)
    } finally spark.conf.set("spark.sql.adaptive.enabled", adaptive)
  }
}

package repro.metrics

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core.TableContext

/** Evaluation measures (paper §9.1): Pair Completeness, wall-clock timing.
  * Executed comparisons are counted inside Comparison-Execution.
  */
object Measures {

  /** Run `f`, returning its value and the elapsed wall-clock millis. */
  def timed[T](f: => T): (T, Long) = {
    val t0  = System.nanoTime()
    val out = f
    (out, (System.nanoTime() - t0) / 1000000L)
  }

  /** Pair Completeness of the post-meta-blocking candidate set: the share
    * of ground-truth duplicate pairs touching the (unresolved) QE that
    * still co-occur in the surviving candidate pairs. PC = 1 when the
    * query has no ground-truth duplicates to find.
    *
    * @param candidatePairs `(aid, bid, …)` with aid < bid
    */
  def pairCompleteness(ctx: TableContext, qe: Set[Long], candidatePairs: DataFrame): Double = {
    val truth = ctx.truth.getOrElse(
      throw new IllegalStateException(s"no ground truth registered for ${ctx.name}"))
    val qeIds = ctx.spark.sparkContext.broadcast(qe)
    val inQe  = F.udf((id: Long) => qeIds.value.contains(id))
    val a = truth.select(F.col("eid").as("aid"), F.col("cluster"))
    val b = truth.select(F.col("eid").as("bid"), F.col("cluster"))
    val gtPairs = a.join(b, "cluster")
      .where(F.col("aid") < F.col("bid"))
      .where(inQe(F.col("aid")) || inQe(F.col("bid")))
    val hits = candidatePairs.select(F.col("aid"), F.col("bid"), F.lit(true).as("hit"))
    val r = gtPairs.join(hits, Seq("aid", "bid"), "left")
      .agg(F.count("*"), F.count("hit"))
      .collect()(0)
    val (gt, hit) = (r.getLong(0), r.getLong(1))
    if (gt == 0L) 1.0 else hit.toDouble / gt
  }
}

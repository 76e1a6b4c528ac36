package repro.core

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import repro.metrics.Measures

/** Result of a full batch deduplication of one table (the paper's D'). */
final case class BatchResult(
    ctx: TableContext,
    clusterOf: Map[Long, Long],
    links: Seq[(Long, Long)],
    comparisons: Long,
    elapsedMs: Long,
) {
  /** The deduplicated grouped collection E_G. */
  lazy val grouped: DataFrame = {
    val g = GroupEntities.group(ctx.rows, clusterOf, ctx.attrs).cache()
    g.count()
    g
  }

  /** Clusters having at least one member that satisfies `pred` — the
    * member-level semantics a BAQ needs so that a query over E_G returns
    * the same entities a batch-cleaned database would (paper §5).
    */
  def matchingClusters(pred: Column): Set[Long] = {
    val spark = ctx.spark
    import spark.implicits._
    ctx.rows.where(pred).select(Tokenizer.EidCol).as[Long].collect()
      .map(id => clusterOf.getOrElse(id, id)).toSet
  }

  /** BAQ over a single collection: grouped rows of matching clusters. */
  def select(pred: Column): DataFrame = {
    val cl   = matchingClusters(pred)
    val isIn = F.udf((c: Long) => cl.contains(c))
    grouped.where(isIn(F.col("cluster")))
  }
}

/** The Batch Approach baseline (paper §5): apply the complete ER workflow
  * — blocking, meta-blocking, comparison execution, grouping — to the
  * entire collection before any query runs. Implemented as the Deduplicate
  * operator with QE = E and no Link Index, so both approaches share the
  * exact same ER machinery and differ only in scope, as in the paper.
  */
object BatchER {

  /** The batch run of `ctx` under `cfg`, memoised on the context. */
  def run(ctx: TableContext, cfg: DedupConfig = DedupConfig()): BatchResult =
    ctx.batchMemo.getOrElseUpdate(cfg.copy(useLinkIndex = false), {
      val spark = ctx.spark
      import spark.implicits._
      val (result, ms) = Measures.timed {
        val allIds  = ctx.rows.select(F.col(Tokenizer.EidCol)).as[Long].collect().toSet
        val outcome = Deduplicate.run(ctx, allIds, cfg.copy(useLinkIndex = false, computePc = false))
        val clusters = Clusters.fromLinks(allIds, outcome.links)
        (clusters, outcome.links, outcome.stats.comparisons)
      }
      BatchResult(ctx, result._1, result._2, result._3, ms)
    })
}

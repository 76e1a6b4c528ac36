package repro.core

import org.apache.spark.sql.Column
import repro.metrics.Measures

/** Result of a full batch deduplication of one table (the paper's D').
  *
  * @param full the batch run's Deduplicate outcome (QE = E, LI off)
  */
final case class BatchResult(full: DedupOutcome, elapsedMs: Long) {
  def ctx: TableContext           = full.ctx
  def clusterOf: Map[Long, Long]  = full.clusterOf
  def links: Seq[(Long, Long)]    = full.links
  def comparisons: Long           = full.stats.comparisons

  /** A batch answer (BAQ) as a Deduplicate outcome: QE is the rows that
    * pass `pred`, DR every member of a cluster QE touches — the
    * member-level semantics under which a query over the batch-cleaned
    * table returns the same entities a Dedupe query does (paper §5).
    * Clusters are whole components, so a batch link with one end in DR
    * has both ends there.
    */
  def outcome(pred: Column): DedupOutcome = {
    val qe      = ctx.idsWhere(pred)
    val touched = qe.map(clusterOf)
    val dr      = clusterOf.filter { case (_, c) => touched(c) }
    // every entity was resolved by the batch run, so none is unresolved
    DedupOutcome(ctx, qe, dr, links.filter { case (a, _) => dr.contains(a) },
      DedupStats(qe.size, 0L, dr.size, 0L, 0L, StageTimes(), None))
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
  def run(ctx: TableContext, cfg: DedupConfig = DedupConfig()): BatchResult = {
    val runCfg = cfg.copy(useLinkIndex = false, computePc = false)
    ctx.batchMemo.getOrElseUpdate(runCfg, {
      val (outcome, ms) = Measures.timed(Deduplicate.run(ctx, ctx.profiles.keySet.toSet, runCfg))
      BatchResult(outcome, ms)
    })
  }
}

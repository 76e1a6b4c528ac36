package repro.planner

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core._
import repro.metrics.Measures

import scala.jdk.CollectionConverters._

/** Measurements of a full dedupe-query evaluation. */
final case class ExecStats(
    totalMs: Long,
    comparisons: Long,
    qeSize: Long,
    drSize: Long,
    times: StageTimes,
    pc: Option[Double] = None,
    plan: Option[JoinPlan] = None,
    sideComparisons: Option[(Long, Long)] = None,
)

/** Query Executor (paper §7.2.2): evaluates planned Dedupe queries by
  * composing the Deduplicate, Deduplicate-Join and Group-Entities
  * operators, and evaluates the Batch Approach baseline for comparison.
  */
object Executor {

  /** Evaluate an SP dedupe query: Filter → Deduplicate → Group-Entities →
    * Project (paper §7.2.1.ii SP placement: the operator sits above the
    * Filter so only |QE_E| entities feed it).
    */
  def runSelect(
      ctx: TableContext,
      spec: SelectSpec,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) = {
    val ((outcome, (result, groupMs)), totalMs) = Measures.timed {
      val out = Deduplicate.run(ctx, ctx.idsWhere(spec.pred.toColumn), cfg)
      (out, Measures.timed(groupAnswer(out, spec.projection)))
    }
    val s = outcome.stats
    (result, ExecStats(totalMs, s.comparisons, s.qeSize, s.drSize,
      s.times.copy(groupMs = groupMs, otherMs = math.max(0L, totalMs - s.times.totalMs - groupMs)),
      s.pc))
  }

  /** Evaluate the Batch Approach for the same SP query: full-table batch
    * ER (timed) + BAQ through the same Group-Entities step. Comparisons
    * and time include the offline cleaning, per the paper's Problem
    * Statement (1).
    */
  def runBatchSelect(
      ctx: TableContext,
      spec: SelectSpec,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) = {
    val batch = BatchER.run(ctx, cfg) // memoised: elapsedMs is the one-off cleaning cost
    val ((outcome, result), queryMs) = Measures.timed {
      val out = batch.outcome(spec.pred.toColumn)
      (out, groupAnswer(out, spec.projection))
    }
    val totalMs = batch.elapsedMs + queryMs
    (result, ExecStats(totalMs, batch.comparisons, outcome.stats.qeSize, ctx.size,
      StageTimes(otherMs = totalMs)))
  }

  /** Evaluate an SPJ dedupe query with the chosen solution (paper §7):
    * NES deduplicates both filtered branches then joins; AES deduplicates
    * the branch with the fewest estimated comparisons first and
    * join-reduces the dirty branch through the Deduplicate-Join operator;
    * `CleanFirst` does the same for a fixed branch.
    */
  def runJoin(
      lCtx: TableContext,
      rCtx: TableContext,
      spec: JoinSpec,
      kind: PlannerKind = AdvancedPlanner,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) = {
    val ((result, lOut, rOut, plan), totalMs) = Measures.timed {
      // the branch deduplicated first; None = NES, both branches at once
      val (plan, first) = kind match {
        case NaivePlanner     => (None, None)
        case AdvancedPlanner  =>
          val p = Planner.plan(lCtx, Statistics.selectedSet(lCtx, spec.left.pred),
            rCtx, Statistics.selectedSet(rCtx, spec.right.pred), cfg.mb, cfg.useLinkIndex)
          (Some(p), Some(p.dedupFirst))
        case CleanFirst(side) => (None, Some(side))
      }
      def clean(ctx: TableContext, side: SelectSpec): DedupOutcome =
        Deduplicate.run(ctx, ctx.idsWhere(side.pred.toColumn), cfg)
      val (lOut, rOut) = first match {
        case None => (clean(lCtx, spec.left), clean(rCtx, spec.right))
        case Some(LeftSide) => DeduplicateJoin.dirtyRight(
          clean(lCtx, spec.left), rCtx, spec.right.pred.toColumn, spec.leftAttr, spec.rightAttr, cfg)
        case Some(RightSide) => DeduplicateJoin.dirtyLeft(
          lCtx, spec.left.pred.toColumn, clean(rCtx, spec.right), spec.leftAttr, spec.rightAttr, cfg)
      }
      (joinAnswer(lOut, rOut, spec), lOut, rOut, plan)
    }
    val comparisons = lOut.stats.comparisons + rOut.stats.comparisons
    val times       = lOut.stats.times + rOut.stats.times
    (result, ExecStats(totalMs, comparisons,
      lOut.stats.qeSize + rOut.stats.qeSize,
      lOut.stats.drSize + rOut.stats.drSize,
      times.copy(otherMs = math.max(0L, totalMs - times.totalMs)),
      pc = None, plan = plan,
      sideComparisons = Some((lOut.stats.comparisons, rOut.stats.comparisons))))
  }

  /** Batch Approach for SPJ: both tables fully deduplicated offline, then
    * the grouped collections are joined at cluster granularity (paper
    * §9.3: "both tables were deduplicated prior to the Join operation and
    * the accumulation of the individual metrics is reported").
    */
  def runBatchJoin(
      lCtx: TableContext,
      rCtx: TableContext,
      spec: JoinSpec,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) = {
    val lb = BatchER.run(lCtx, cfg) // memoised one-off cleaning costs
    val rb = BatchER.run(rCtx, cfg)
    val (result, queryMs) = Measures.timed {
      joinAnswer(lb.outcome(spec.left.pred.toColumn), rb.outcome(spec.right.pred.toColumn), spec)
    }
    val totalMs = lb.elapsedMs + rb.elapsedMs + queryMs
    (result, ExecStats(totalMs, lb.comparisons + rb.comparisons,
      lCtx.size + rCtx.size, lCtx.size + rCtx.size, StageTimes(otherMs = totalMs)))
  }

  /** Group-Entities → Project: the tail of every SP query; driver-local. */
  private def groupAnswer(out: DedupOutcome, projection: Seq[String]): DataFrame = {
    val attrs   = out.ctx.attrs
    val grouped = out.ctx.spark.createDataFrame(
      GroupEntities.fold(out.drProfiles, out.clusterOf, attrs).asJava, GroupEntities.schema(attrs))
    if (projection.isEmpty) grouped else grouped.select(projection.map(F.col): _*)
  }

  /** Deduplicate-Join → Project: the tail of every SPJ query; driver-local. */
  private def joinAnswer(l: DedupOutcome, r: DedupOutcome, spec: JoinSpec): DataFrame = {
    val joined = DeduplicateJoin.joinOperation(l, r, spec.leftAttr, spec.rightAttr)
    if (spec.projection.isEmpty) joined
    else joined.select(spec.projection.map { case (t, a) => F.col(s"${t}_$a") }: _*)
  }
}

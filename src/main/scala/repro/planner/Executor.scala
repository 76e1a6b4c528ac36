package repro.planner

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core._
import repro.metrics.Measures

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
    var outcome: DedupOutcome = null
    var grouped: DataFrame    = null
    var groupMs               = 0L
    val (_, totalMs) = Measures.timed {
      val qe = ctx.rows.where(spec.pred.toColumn).select(Tokenizer.EidCol)
      outcome = Deduplicate.run(ctx, qe, cfg)
      val (g, gMs) = Measures.timed {
        val gr = GroupEntities.group(outcome.drRows, outcome.clusterOf, ctx.attrs).cache()
        gr.count()
        gr
      }
      groupMs = gMs
      grouped = project(g, spec.projection)
    }
    val s = outcome.stats
    (grouped, ExecStats(totalMs, s.comparisons, s.qeSize, s.drSize,
      s.times.copy(groupMs = groupMs, otherMs = math.max(0L, totalMs - s.times.totalMs - groupMs)),
      s.pc))
  }

  /** Evaluate the Batch Approach for the same SP query: full-table batch
    * ER (timed) + BAQ over the grouped collection. Comparisons and time
    * include the offline cleaning, per the paper's Problem Statement (1).
    */
  def runBatchSelect(
      ctx: TableContext,
      spec: SelectSpec,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) = {
    val batch = BatchER.run(ctx, cfg) // memoised: elapsedMs is the one-off cleaning cost
    val (result, queryMs) = Measures.timed {
      val r = project(batch.select(spec.pred.toColumn), spec.projection)
      r.count()
      r
    }
    val qe      = ctx.rows.where(spec.pred.toColumn).count()
    val totalMs = batch.elapsedMs + queryMs
    (result, ExecStats(totalMs, batch.comparisons, qe, ctx.size, StageTimes(otherMs = totalMs)))
  }

  /** Evaluate an SPJ dedupe query with the chosen solution (paper §7):
    * NES deduplicates both filtered branches then joins; AES deduplicates
    * the branch with the fewest estimated comparisons first and
    * join-reduces the dirty branch through the Deduplicate-Join operator.
    */
  def runJoin(
      lCtx: TableContext,
      rCtx: TableContext,
      spec: JoinSpec,
      kind: PlannerKind = AdvancedPlanner,
      cfg: DedupConfig = DedupConfig(),
      forceFirst: Option[Side] = None,
  ): (DataFrame, ExecStats) = {
    val ((result, lOut, rOut, plan), totalMs) = Measures.timed {
      val plan =
        if (forceFirst.isEmpty && kind == AdvancedPlanner)
          Some(Planner.planJoin(lCtx, spec.left.pred, rCtx, spec.right.pred, cfg.mb))
        else None
      // the branch deduplicated first; None = NES, both branches at once
      val first = forceFirst.orElse(plan.map(_.dedupFirst))
      def clean(ctx: TableContext, side: SelectSpec): DedupOutcome =
        Deduplicate.run(ctx, ctx.rows.where(side.pred.toColumn).select(Tokenizer.EidCol), cfg)
      val (lOut, rOut) = first match {
        case None => (clean(lCtx, spec.left), clean(rCtx, spec.right))
        case Some(LeftSide) => DeduplicateJoin.dirtyRight(
          clean(lCtx, spec.left), rCtx, spec.right.pred.toColumn, spec.leftAttr, spec.rightAttr, cfg)
        case Some(RightSide) => DeduplicateJoin.dirtyLeft(
          lCtx, spec.left.pred.toColumn, clean(rCtx, spec.right), spec.leftAttr, spec.rightAttr, cfg)
      }
      val joined = DeduplicateJoin.joinOperation(lOut, rOut, spec.leftAttr, spec.rightAttr)
      val result = projectJoin(joined, spec.projection).cache()
      result.count()
      (result, lOut, rOut, plan)
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
      val lOut   = outcomeOfBatch(lCtx, lb, spec.left.pred)
      val rOut   = outcomeOfBatch(rCtx, rb, spec.right.pred)
      val joined = DeduplicateJoin.joinOperation(lOut, rOut, spec.leftAttr, spec.rightAttr)
      val r      = projectJoin(joined, spec.projection).cache()
      r.count()
      r
    }
    val totalMs = lb.elapsedMs + rb.elapsedMs + queryMs
    (result, ExecStats(totalMs, lb.comparisons + rb.comparisons,
      lCtx.size + rCtx.size, lCtx.size + rCtx.size, StageTimes(otherMs = totalMs)))
  }

  /** View a batch-cleaned table as a DedupOutcome restricted to the
    * clusters any of whose members pass the predicate (BAQ semantics).
    */
  private def outcomeOfBatch(ctx: TableContext, batch: BatchResult, pred: Pred): DedupOutcome = {
    val spark = ctx.spark
    import spark.implicits._
    val clusters = batch.matchingClusters(pred.toColumn)
    val members  = batch.clusterOf.collect {
      case (id, c) if clusters.contains(c) => id
    }.toSet
    val qe = ctx.rows.where(pred.toColumn).select(Tokenizer.EidCol).as[Long].collect().toSet
    val links = {
      val li = new LinkIndex
      li.addLinks(batch.links)
      li.linksAmong(members)
    }
    DedupOutcome(ctx, qe, members, links,
      DedupStats(qe.size, qe.size, members.size, 0L, 0L, StageTimes(), None))
  }

  private def project(grouped: DataFrame, projection: Seq[String]): DataFrame =
    if (projection.isEmpty) grouped
    else grouped.select(projection.map(F.col): _*)

  private def projectJoin(joined: DataFrame, projection: Seq[(String, String)]): DataFrame =
    if (projection.isEmpty) joined
    else joined.select(projection.map { case (t, a) => F.col(s"${t}_$a") }: _*)
}

package repro.planner

import repro.core.{MbConfig, TableContext}

/** Which solution plans the query (paper §7), i.e. the join order. */
sealed trait PlannerKind
/** Naïve ER Solution: Deduplicate above each Filter on both branches,
  * no cost model (paper §7.1, Fig. 6).
  */
case object NaivePlanner extends PlannerKind
/** Advanced ER Solution: cost-based operator placement minimising the
  * executed comparisons (paper §7.2).
  */
case object AdvancedPlanner extends PlannerKind
/** A fixed cleaning order with no cost model: deduplicate `side` first and
  * join-reduce the other branch through Deduplicate-Join (the two orders
  * paper Table 5 compares).
  */
final case class CleanFirst(side: Side) extends PlannerKind

/** Side of a join tree. */
sealed trait Side
case object LeftSide  extends Side
case object RightSide extends Side

/** The plan the Advanced ER Solution settles on for an SPJ query: which
  * branch to deduplicate first (the one yielding the fewest estimated
  * comparisons — its DR then join-reduces the other, dirty, branch) and
  * therefore which Deduplicate-Join type to use (paper §7.2.1.ii).
  */
final case class JoinPlan(
    dedupFirst: Side,
    estLeftComparisons: Long,
    estRightComparisons: Long,
) {
  /** DIRTY-RIGHT when the left branch is resolved first, else DIRTY-LEFT. */
  def joinType: String = if (dedupFirst == LeftSide) "DIRTY-RIGHT" else "DIRTY-LEFT"
}

object Planner {

  /** Cost-based placement for a two-table dedupe join: estimate the
    * comparisons of each branch from the ER statistics and deduplicate
    * the cheaper branch first (paper Table 5 / §7.2.1.ii). Ties break to
    * the left branch for determinism.
    */
  def planJoin(
      lCtx: TableContext, lPred: Pred,
      rCtx: TableContext, rPred: Pred,
      mb: MbConfig = MbConfig.All,
  ): JoinPlan =
    plan(lCtx, Statistics.selectedSet(lCtx, lPred), rCtx, Statistics.selectedSet(rCtx, rPred),
      mb, useLinkIndex = true)

  /** [[planJoin]] over the branches' selected sets. `useLinkIndex` is the
    * statement's: the Link Index's resolved entities are priced out only
    * when it is on.
    */
  def plan(
      lCtx: TableContext, lSelected: Set[Long],
      rCtx: TableContext, rSelected: Set[Long],
      mb: MbConfig, useLinkIndex: Boolean,
  ): JoinPlan = {
    val cl = Statistics.estimateComparisons(lCtx, lSelected, mb, useLinkIndex)
    val cr = Statistics.estimateComparisons(rCtx, rSelected, mb, useLinkIndex)
    JoinPlan(if (cl <= cr) LeftSide else RightSide, cl, cr)
  }
}

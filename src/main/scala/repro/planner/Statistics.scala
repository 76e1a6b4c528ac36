package repro.planner

import org.apache.spark.sql.{functions => F}
import repro.core._

/** The ER statistic the planner reads (paper §7.2.1.i): estimated
  * comparisons. Literals in the WHERE clause define blocking keys; the
  * selected set S_E is approximated from the TBI blocks of those keys
  * (AND = intersection, OR = union), the candidate block collection SB
  * is the Deduplicate operator's own EQBI, a lookup in the table's
  * driver-side refined TBI ([[TableContext.blockIndex]]), and
  * C = Σ_b |q_b|·(|S_b| − (|q_b|+1)/2), computed on the driver. The
  * estimation stops before Edge Pruning, as the paper does, because the
  * inequality between branches is already decided there. The paper's
  * other two statistics (the duplication factor and the join percentage)
  * are not built: the two-table AES plan compares only the two branches'
  * estimates.
  */
object Statistics {
  import Tokenizer.EidCol

  /** Entities selected by the predicate, derived from blocking keys where
    * the predicate carries literals and by evaluating the filter otherwise
    * (ranges/MOD — cheap at registration time; the paper's estimator only
    * covers literal conditions); no predicate selects every profile.
    */
  def selectedSet(ctx: TableContext, pred: Pred): Set[Long] = {
    def byTokens(tokens: Seq[String]): Set[Long] =
      if (tokens.isEmpty) Set.empty
      else {
        // an equality literal's tokens must ALL block the entity
        val sets = tokens.map { t =>
          ctx.tbi.where(F.col("token") === t).select(EidCol).collect().map(_.getLong(0)).toSet
        }
        sets.reduce(_ intersect _)
      }
    pred match {
      case TruePred        => ctx.profiles.keySet.toSet
      case EqPred(_, v)    => byTokens(Tokenizer.tokensOf(v))
      case InPred(_, vs)   => vs.map(v => byTokens(Tokenizer.tokensOf(v))).foldLeft(Set.empty[Long])(_ union _)
      case AndPred(l, r)   => selectedSet(ctx, l) intersect selectedSet(ctx, r)
      case OrPred(l, r)    => selectedSet(ctx, l) union selectedSet(ctx, r)
      case other           => ctx.idsWhere(other.toColumn)
    }
  }

  /** Estimated number of comparisons the Deduplicate operator would
    * execute for the `selected` entities (post BP+BF, pre EP): over the
    * entities it would leave unresolved (the Link Index's resolved ones
    * dropped only when the statement runs with it), blocked through the
    * query graph the operator executes, up to Block-Join. No Spark job.
    */
  def estimateComparisons(
      ctx: TableContext,
      selected: Set[Long],
      mb: MbConfig,
      useLinkIndex: Boolean,
  ): Long = {
    val unresolved = if (useLinkIndex) selected.filterNot(ctx.li.isResolved) else selected
    ctx.blockIndex(mb).restrict(unresolved).estimatedComparisons
  }
}

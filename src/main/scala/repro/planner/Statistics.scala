package repro.planner

import org.apache.spark.sql.{functions => F}
import repro.core._

/** The ER statistic the planner reads (paper §7.2.1.i): estimated
  * comparisons. Literals in the WHERE clause define blocking keys; the
  * selected set S_E is approximated from the TBI blocks of those keys
  * (AND = intersection, OR = union), the candidate block collection SB
  * is the Deduplicate operator's own EQBI over the BP/BF-refined TBI, and
  * C = Σ_b |q_b|·(|S_b| − (|q_b|+1)/2). The estimation stops before Edge
  * Pruning, as the paper does, because the inequality between branches
  * is already decided there. The paper's other two statistics (the
  * duplication factor and the join percentage) are not built: the
  * two-table AES plan compares only the two branches' estimates.
  */
object Statistics {
  import Tokenizer.EidCol

  /** Entities selected by the predicate, derived from blocking keys where
    * the predicate carries literals and by evaluating the filter otherwise
    * (ranges/MOD — cheap at registration time; the paper's estimator only
    * covers literal conditions).
    */
  def selectedSet(ctx: TableContext, pred: Pred): Set[Long] = {
    val spark = ctx.spark
    import spark.implicits._
    def byTokens(tokens: Seq[String]): Set[Long] =
      if (tokens.isEmpty) Set.empty
      else {
        // an equality literal's tokens must ALL block the entity
        val sets = tokens.map { t =>
          ctx.tbi.where(F.col("token") === t).select(EidCol).as[Long].collect().toSet
        }
        sets.reduce(_ intersect _)
      }
    pred match {
      case TruePred        => ctx.rows.select(EidCol).as[Long].collect().toSet
      case EqPred(_, v)    => byTokens(Tokenizer.tokensOf(v))
      case InPred(_, vs)   => vs.map(v => byTokens(Tokenizer.tokensOf(v))).foldLeft(Set.empty[Long])(_ union _)
      case AndPred(l, r)   => selectedSet(ctx, l) intersect selectedSet(ctx, r)
      case OrPred(l, r)    => selectedSet(ctx, l) union selectedSet(ctx, r)
      case other           =>
        ctx.rows.where(other.toColumn).select(EidCol).as[Long].collect().toSet
    }
  }

  /** Estimated number of comparisons the Deduplicate operator would
    * execute for this predicate (post BP+BF, pre EP): the entities it
    * selects that the Link Index has not resolved, blocked through the
    * query graph the operator executes, up to Block-Join.
    */
  def estimateComparisons(ctx: TableContext, pred: Pred, mb: MbConfig = MbConfig.All): Long = {
    val selected = selectedSet(ctx, pred).filterNot(ctx.li.isResolved)
    if (selected.isEmpty) return 0L
    val sb = Deduplicate.blockJoin(ctx, Deduplicate.qbiKeys(ctx, selected), selected, mb)
    val est = sb.groupBy("token")
      .agg(F.count("*").as("n"), F.sum(F.col("isQuery").cast("long")).as("q"))
      .where(F.col("q") > 0)
      .agg(F.sum(F.col("q") * (F.col("n") - (F.col("q") + 1) / 2.0)).as("c"))
      .collect()(0)
    if (est.isNullAt(0)) 0L else math.max(0L, math.round(est.getDouble(0)))
  }
}

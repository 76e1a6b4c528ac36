package repro.planner

import org.apache.spark.sql.{functions => F}
import repro.core._

/** ER-specific planner statistics (paper §7.2.1.i).
  *
  * 1. Estimated comparisons: literals in the WHERE clause define blocking
  *    keys; the selected set S_E is approximated from the TBI blocks of
  *    those keys (AND = intersection, OR = union), the candidate block
  *    collection SB is the Deduplicate operator's own EQBI over the
  *    BP/BF-refined TBI, and C = Σ_b |q_b|·(|S_b| − (|q_b|+1)/2).
  *    The estimation stops before Edge Pruning, as the paper does,
  *    because the inequality between branches is already decided there.
  * 2. Duplication factor df: an eagerly-cleaned sample at load time gives
  *    the expected |DR_E| / |QE_E| ratio.
  * 3. Join percentage: the pre-computed fraction of each table pair that
  *    equi-joins.
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
    * execute for this predicate (post BP+BF, pre EP).
    */
  def estimateComparisons(ctx: TableContext, pred: Pred, mb: MbConfig = MbConfig.All): Long = {
    val selected = selectedSet(ctx, pred).filterNot(ctx.li.isResolved)
    estimateComparisonsFor(ctx, selected, mb)
  }

  /** Same, for an explicit selected set (used by the Deduplicate-Join
    * planner where the dirty side's QE' comes from the join reduction).
    */
  def estimateComparisonsFor(ctx: TableContext, selected: Set[Long], mb: MbConfig): Long = {
    if (selected.isEmpty) return 0L
    // the query graph the Deduplicate operator executes, up to Block-Join
    val sb = Deduplicate.blockJoin(ctx, Deduplicate.qbiKeys(ctx, selected), selected, mb)
    val est = sb.groupBy("token")
      .agg(F.count("*").as("n"), F.sum(F.col("isQuery").cast("long")).as("q"))
      .where(F.col("q") > 0)
      .agg(F.sum(F.col("q") * (F.col("n") - (F.col("q") + 1) / 2.0)).as("c"))
      .collect()(0)
    if (est.isNullAt(0)) 0L else math.max(0L, math.round(est.getDouble(0)))
  }

  /** Duplication factor |DR_E| / |QE_E| from an eagerly-cleaned sample
    * (paper: computed offline during initial data loading). Memoised.
    */
  def duplicationFactor(
      ctx: TableContext,
      cfg: DedupConfig = DedupConfig(),
      fraction: Double = 0.1,
      cap: Int = 2000,
      seed: Long = 42,
  ): Double = ctx.dupFactorMemo.getOrElse {
    val spark = ctx.spark
    import spark.implicits._
    val sampleIds = ctx.rows.sample(withReplacement = false, fraction, seed)
      .select(EidCol).as[Long].collect().take(cap).toSet
    val df =
      if (sampleIds.isEmpty) 1.0
      else {
        val outcome = Deduplicate.run(ctx, sampleIds, cfg.copy(useLinkIndex = false))
        outcome.drIds.size.toDouble / sampleIds.size
      }
    ctx.dupFactorMemo = Some(df)
    df
  }

  /** Fraction of each side's entities participating in the equi-join —
    * pre-computed per table pair (paper §7.2.1.i). Memoised on the left
    * context.
    */
  def joinPercent(
      l: TableContext, lAttr: String,
      r: TableContext, rAttr: String,
  ): (Double, Double) =
    l.joinPercentMemo.getOrElseUpdate((lAttr, r.name, rAttr), {
      val lv = l.rows.select(F.col(EidCol), F.col(lAttr).cast("string").as("__v"))
        .where(F.col("__v").isNotNull)
      val rv = r.rows.select(F.col(EidCol).as("reid"), F.col(rAttr).cast("string").as("__v"))
        .where(F.col("__v").isNotNull)
      val lHit = lv.join(rv.select("__v").distinct(), "__v").select(EidCol).distinct().count()
      val rHit = rv.join(lv.select("__v").distinct(), "__v").select("reid").distinct().count()
      (lHit.toDouble / math.max(1L, l.size), rHit.toDouble / math.max(1L, r.size))
    })

  /** Estimated |DR_E| for a query yielding `qeSize` entities (paper's df
    * extrapolation example: 20% duplicates in the sample ⇒ 2000 → 2400).
    */
  def estimateDrSize(ctx: TableContext, qeSize: Long, cfg: DedupConfig = DedupConfig()): Double =
    qeSize * duplicationFactor(ctx, cfg)
}

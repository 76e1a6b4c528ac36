package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}
import repro.metrics.Measures

/** Configuration of a Dedupe query execution. */
final case class DedupConfig(
    mb: MbConfig = MbConfig.All,
    simThreshold: Double = 0.85,
    useLinkIndex: Boolean = true,
    computePc: Boolean = false,
)

/** Wall-clock per Deduplicate-operator stage (paper Table 6 breakdown).
  *
  * @param blockingMs Query Blocking; it runs inside the Block-Join action,
  *                   which `blockJoinMs` times, so the operator leaves it 0
  */
final case class StageTimes(
    blockingMs: Long = 0,
    blockJoinMs: Long = 0,
    metaBlockingMs: Long = 0,
    comparisonMs: Long = 0,
    groupMs: Long = 0,
    otherMs: Long = 0,
) {
  def totalMs: Long = blockingMs + blockJoinMs + metaBlockingMs + comparisonMs + groupMs + otherMs
  def +(o: StageTimes): StageTimes = StageTimes(
    blockingMs + o.blockingMs, blockJoinMs + o.blockJoinMs,
    metaBlockingMs + o.metaBlockingMs, comparisonMs + o.comparisonMs,
    groupMs + o.groupMs, otherMs + o.otherMs)
}

/** Measurements of one Deduplicate-operator evaluation. */
final case class DedupStats(
    qeSize: Long,
    unresolvedSize: Long,
    drSize: Long,
    comparisons: Long,
    candidateBlocks: Long,
    times: StageTimes,
    pc: Option[Double],
)

/** Output of the Deduplicate operator: DR_E = ⟨QE ∪ dups-of-QE, L_E⟩.
  *
  * @param clusterOf cluster representative per DR entity (connected
  *                  components of L_E); its keys are DR
  */
final case class DedupOutcome(
    ctx: TableContext,
    qeIds: Set[Long],
    clusterOf: Map[Long, Long],
    links: Seq[(Long, Long)],
    stats: DedupStats,
) {
  def drIds: Set[Long] = clusterOf.keySet

  /** Entity rows of the DR set. */
  def drRows: DataFrame = ctx.rowsOf(drIds)
}

/** The Deduplicate operator (paper §6.1): Query Blocking → Block-Join →
  * Meta-Blocking (BP, BF, EP) → Comparison-Execution, amending the Link
  * Index with the resolved links. Query Blocking and Block-Join are a
  * Catalyst composition over the table's TBI; meta-blocking and the
  * comparisons run entity-based over the broadcast [[BlockIndex]]. Every
  * stage launches at most one Spark action, which its stage time measures
  * (paper Table 6): Block-Join one, Meta-Blocking one for Edge Pruning
  * (none without it), Comparison-Execution one.
  */
object Deduplicate {
  import Tokenizer.EidCol

  def run(ctx: TableContext, qe: DataFrame, cfg: DedupConfig = DedupConfig()): DedupOutcome = {
    val spark = ctx.spark
    import spark.implicits._
    val qeIds = qe.select(F.col(EidCol).cast("long")).as[Long].collect().toSet
    run(ctx, qeIds, cfg)
  }

  def run(ctx: TableContext, qeIds: Set[Long], cfg: DedupConfig): DedupOutcome = {
    // LI short-circuit: only entities whose link-sets are not yet known
    // feed the ER pipeline (paper §6.1: "we only need to compute the
    // link-sets of those entities in QE_E that are not already in LI_E").
    val unresolved: Set[Long] =
      if (cfg.useLinkIndex) qeIds.filterNot(ctx.li.isResolved) else qeIds

    val (comparisons, candidateBlocks, newLinks, times, pc) =
      if (unresolved.isEmpty) (0L, 0L, Nil, StageTimes(), None)
      else {
        // (i)+(ii) Query Blocking and Block-Join: the EQBI over the
        // BP/BF-refined TBI, collected by this stage's one action into the
        // block index that meta-blocking broadcasts.
        val sc = ctx.spark.sparkContext
        val (index, tJoin) =
          Measures.timed(BlockIndex(blockJoin(ctx, qbiKeys(ctx, unresolved), unresolved, cfg.mb)))
        val broadcastIndex = sc.broadcast(index)
        try {
          // (iii) Meta-Blocking — comparison refinement: the candidate pairs
          // of the EQBI (block refinement already folded into the index),
          // Edge Pruning per configuration; its mean weight is this stage's
          // one action. The pairs are recomputed from the broadcast index
          // wherever they are read, so under BP+BF (no action here) their
          // work is timed by (iv).
          val (pairs, tMeta) = Measures.timed {
            val raw = MetaBlocking.candidatePairs(sc, broadcastIndex)
            if (cfg.mb.edgePruning) MetaBlocking.edgePruning(raw) else raw
          }

          // (iv) Comparison-Execution — resolution function on each pair.
          val ((n, links), tCmp) = Measures.timed(
            ComparisonExecution.execute(ctx, pairs, index.entities, cfg.simThreshold))

          // PC runs after the timed stages.
          val pc = Option.when(cfg.computePc && ctx.truth.isDefined)(
            Measures.pairCompleteness(ctx, unresolved, ctx.spark.createDataFrame(pairs)))

          (n, index.blocks, links,
            StageTimes(blockJoinMs = tJoin, metaBlockingMs = tMeta, comparisonMs = tCmp), pc)
        } finally broadcastIndex.destroy()
      }

    // Amend the LI (a scratch one when it is off) and assemble
    // DR = QE ∪ duplicates-of-QE, clustered by the LI's components.
    val li = if (cfg.useLinkIndex) ctx.li else new LinkIndex
    li.addLinks(newLinks)
    if (cfg.useLinkIndex) li.markResolved(unresolved)
    val clusterOf = li.clusters(qeIds)
    DedupOutcome(ctx, qeIds, clusterOf, li.linksAmong(clusterOf.keySet),
      DedupStats(qeIds.size, unresolved.size, clusterOf.size, comparisons, candidateBlocks, times, pc))
  }

  /** Query Blocking: the blocking keys (QBI) of the `ids` entities, one
    * row per entity and key. QE ⊆ E and blocking is deterministic, so the
    * keys are read from the TBI rather than re-tokenised.
    */
  def qbiKeys(ctx: TableContext, ids: Set[Long]): DataFrame =
    ctx.tbi.where(TableContext.isIn(ids)).select("token")

  /** Block-Join: semi-join of the BP/BF-refined TBI (see
    * [[TableContext.retainedTbi]]) with the QBI `keys`, giving the
    * enriched query block index EQBI as `(token, eid, isQuery)`, where
    * `isQuery` marks the `ids` entities. The Deduplicate operator and the
    * planner's comparison estimate both read this one query graph.
    */
  def blockJoin(ctx: TableContext, keys: DataFrame, ids: Set[Long], mb: MbConfig): DataFrame =
    ctx.retainedTbi(mb).join(keys, Seq("token"), "left_semi").withColumn("isQuery", TableContext.isIn(ids))
}

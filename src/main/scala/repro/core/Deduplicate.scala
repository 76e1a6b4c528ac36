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
  * @param blockingMs Query Blocking; it runs inside Block-Join's index
  *                   lookup, which `blockJoinMs` times, so the operator
  *                   leaves it 0
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

  /** Entity rows of the DR set: a filter on the cached rows. */
  def drRows: DataFrame = ctx.rows.where(TableContext.isIn(ctx.spark.sparkContext.broadcast(drIds)))

  /** The DR set's profiles, looked up in the table's driver-side profiles
    * ([[TableContext.profiles]]): Group-Entities folds them, for an SP
    * answer and for each side of Deduplicate-Join.
    */
  lazy val drProfiles: Array[(Long, Array[String])] = drIds.iterator.map(id => id -> ctx.profiles(id)).toArray
}

/** The Deduplicate operator (paper §6.1): Query Blocking → Block-Join →
  * Meta-Blocking (BP, BF, EP) → Comparison-Execution, amending the Link
  * Index with the resolved links. Query Blocking and Block-Join are
  * lookups in the table's driver-side refined TBI
  * ([[TableContext.blockIndex]]); meta-blocking and the comparisons run
  * entity-based over the broadcast [[BlockIndex]]. Every stage launches at
  * most one Spark action, which its stage time measures (paper Table 6):
  * Block-Join none, Meta-Blocking one for Edge Pruning (none without it),
  * Comparison-Execution one.
  */
object Deduplicate {
  import Tokenizer.EidCol

  def run(ctx: TableContext, qe: DataFrame, cfg: DedupConfig = DedupConfig()): DedupOutcome =
    run(ctx, qe.select(F.col(EidCol).cast("long")).collect().map(_.getLong(0)).toSet, cfg)

  def run(ctx: TableContext, qeIds: Set[Long], cfg: DedupConfig): DedupOutcome = {
    // LI short-circuit: only entities whose link-sets are not yet known
    // feed the ER pipeline (paper §6.1: "we only need to compute the
    // link-sets of those entities in QE_E that are not already in LI_E").
    val unresolved: Set[Long] =
      if (cfg.useLinkIndex) qeIds.filterNot(ctx.li.isResolved) else qeIds

    val (comparisons, candidateBlocks, newLinks, times, pc) =
      if (unresolved.isEmpty) (0L, 0L, Nil, StageTimes(), None)
      else {
        // (i)+(ii) Query Blocking and Block-Join: the EQBI is the table's
        // driver-side refined TBI restricted to the unresolved entities,
        // whose blocks are their blocking keys; no Spark job.
        val sc = ctx.spark.sparkContext
        val (index, tJoin) = Measures.timed(ctx.blockIndex(cfg.mb).restrict(unresolved))
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
}

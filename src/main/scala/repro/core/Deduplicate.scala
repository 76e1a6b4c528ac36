package repro.core

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import repro.metrics.Measures

/** Configuration of a Dedupe query execution. */
final case class DedupConfig(
    mb: MbConfig = MbConfig.All,
    simThreshold: Double = 0.85,
    useLinkIndex: Boolean = true,
    computePc: Boolean = false,
)

/** Wall-clock per Deduplicate-operator stage (paper Table 6 breakdown). */
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

/** Output of the Deduplicate operator: DR_E = ⟨QE ∪ dups-of-QE, L_E⟩. */
final case class DedupOutcome(
    ctx: TableContext,
    qeIds: Set[Long],
    drIds: Set[Long],
    links: Seq[(Long, Long)],
    stats: DedupStats,
) {
  /** Entity rows of the DR set. */
  def drRows: DataFrame = {
    val spark = ctx.spark
    import spark.implicits._
    val ids = spark.createDataset(drIds.toSeq).toDF(Tokenizer.EidCol)
    ctx.rows.join(ids, Tokenizer.EidCol)
  }

  /** Cluster representative per DR entity (connected components of L_E). */
  lazy val clusterOf: Map[Long, Long] = Clusters.fromLinks(drIds, links)
}

/** The Deduplicate operator (paper §6.1): Query Blocking → Block-Join →
  * Meta-Blocking (BP, BF, EP) → Comparison-Execution, amending the Link
  * Index with the resolved links. Every stage is a Catalyst composition
  * over the table's TBI; stages are materialised so the paper's per-stage
  * time breakdown can be reported.
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
    val spark = ctx.spark
    import spark.implicits._

    // LI short-circuit: only entities whose link-sets are not yet known
    // feed the ER pipeline (paper §6.1: "we only need to compute the
    // link-sets of those entities in QE_E that are not already in LI_E").
    val unresolved: Set[Long] =
      if (cfg.useLinkIndex) qeIds.filterNot(ctx.li.isResolved) else qeIds

    var times            = StageTimes()
    var comparisons      = 0L
    var candidateBlocks  = 0L
    var pc: Option[Double]          = None
    var newLinks: Seq[(Long, Long)] = Nil

    if (unresolved.nonEmpty) {
      // (i) Query Blocking — the QBI keys of the unresolved QE entities.
      val (keys, tBlk) = Measures.timed {
        val k = qbiKeys(ctx, unresolved).cache()
        k.count()
        k
      }

      // (ii) Block-Join — the enriched EQBI over the BP/BF-refined TBI.
      val (eqbi, tJoin) = Measures.timed {
        val e = blockJoin(ctx, keys, unresolved, cfg.mb).cache()
        candidateBlocks = e.select("token").distinct().count()
        e
      }

      // (iii) Meta-Blocking — comparison refinement: the candidate pairs
      // of the EQBI (block refinement already folded into the index),
      // Edge Pruning per configuration. The raw pairs are persisted so
      // EP's mean-weight aggregate does not re-evaluate the pair DAG.
      val (pairs, tMeta) = Measures.timed {
        val raw = MetaBlocking.candidatePairs(eqbi)
          .persist(org.apache.spark.storage.StorageLevel.MEMORY_AND_DISK)
        val p =
          if (cfg.mb.edgePruning) MetaBlocking.edgePruning(raw).cache()
          else raw
        comparisons = p.count()
        if (p ne raw) raw.unpersist()
        p
      }

      if (cfg.computePc && ctx.truth.isDefined)
        pc = Some(Measures.pairCompleteness(ctx, unresolved, pairs))

      // (iv) Comparison-Execution — resolution function on each pair.
      val (_, tCmp) = Measures.timed {
        newLinks = ComparisonExecution.execute(ctx, pairs, cfg.simThreshold)
          .select(F.col("aid"), F.col("bid")).as[(Long, Long)].collect().toSeq
      }

      times = StageTimes(blockingMs = tBlk, blockJoinMs = tJoin,
        metaBlockingMs = tMeta, comparisonMs = tCmp)

      pairs.unpersist(); eqbi.unpersist(); keys.unpersist()
    }

    // Amend the LI (a scratch one when it is off) and assemble
    // DR = QE ∪ duplicates-of-QE.
    val li = if (cfg.useLinkIndex) ctx.li else new LinkIndex
    li.addLinks(newLinks)
    if (cfg.useLinkIndex) li.markResolved(unresolved)
    val dr = li.closure(qeIds)
    DedupOutcome(ctx, qeIds, dr, li.linksAmong(dr),
      DedupStats(qeIds.size, unresolved.size, dr.size, comparisons, candidateBlocks, times, pc))
  }

  /** Query Blocking: the distinct blocking keys (QBI) of the `ids`
    * entities. QE ⊆ E and blocking is deterministic, so the keys are read
    * from the TBI rather than re-tokenised.
    */
  def qbiKeys(ctx: TableContext, ids: Set[Long]): DataFrame =
    ctx.tbi.where(isQuery(ids)).select("token").distinct()

  /** Block-Join: hash-join of the QBI `keys` with the BP/BF-refined TBI
    * (see [[TableContext.retainedTbi]]), giving the enriched query block
    * index EQBI as `(token, eid, isQuery)`, where `isQuery` marks the
    * `ids` entities. The Deduplicate operator and the planner's
    * comparison estimate both read this one query graph.
    */
  def blockJoin(ctx: TableContext, keys: DataFrame, ids: Set[Long], mb: MbConfig): DataFrame =
    ctx.retainedTbi(mb).join(keys, "token").withColumn("isQuery", isQuery(ids))

  private def isQuery(ids: Set[Long]): Column =
    F.udf((id: Long) => ids.contains(id)).apply(F.col(EidCol))
}

package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession, functions => F}
import repro.core._
import repro.planner._
import repro.sql.{DedupSqlParser, TableRegistry}

import scala.collection.mutable

/** Traced replay of `QueryEr.sqlWithStats`: the same public calls in the
  * same order (parse, filter, `Deduplicate.run`, then `GroupEntities.group`,
  * or `Planner.planJoin` and the `DeduplicateJoin` calls), each wrapped in
  * a span. After each statement, outside its span, it rebuilds the EQBI to
  * count the pairs before and after Edge Pruning and replays the Link
  * Index closure.
  */
final class Replay(spark: SparkSession, wl: WorkloadDef, tracer: Tracer) {
  import Tokenizer.EidCol
  import spark.implicits._

  private val ids: Map[String, Array[Long]] = wl.tables.map { t =>
    t.name -> TableRegistry(t.name).rows.select(EidCol).as[Long].collect()
  }.toMap

  // per-pass totals
  var qe, unresolved, candidateBlocks, comparisons, dr, linksFound = 0L
  var blockingMs, blockJoinMs, metaBlockingMs, comparisonMs = 0L
  var pairsBeforeEp, pairsAfterEp, groupClusters, reducedQe = 0L
  var estLeft, estRight = 0L
  /** QE and unresolved entities of the statements that run with the LI on. */
  var liQe, liUnresolved = 0L
  var planNs, closureNs, groupNs, dirtySideNs, joinNs = 0L
  val estimateErrors = mutable.ArrayBuffer.empty[Double]
  /** Statements whose rebuilt `pairs after EP` differs from `comparisons`. */
  val mismatches = mutable.ArrayBuffer.empty[String]
  /** Inputs for the kernel microbenchmarks, collected once. */
  var samplePairs: Array[(Long, Long)] = Array.empty
  val clusterInputs = mutable.ArrayBuffer.empty[(Set[Long], Seq[(Long, Long)])]

  /** Replay one statement; returns its rows, comparisons and span time. */
  def run(st: Statement, stmtId: String): (Array[Row], Long, Long) = {
    tracer.stmt = stmtId
    val before = wl.tables.map { t =>
      val ctx = TableRegistry(t.name)
      t.name -> (ids(t.name).filter(ctx.li.isResolved).toSet, ctx.li.linkCount)
    }.toMap

    val t0 = System.nanoTime()
    val (rows, sides, cached, plan) = tracer.span("statement") {
      tracer.span("sql.parse")(DedupSqlParser.parse(spark, st.sql)) match {
        case DedupSqlParser.ParsedSelect(spec) => select(spec, st.cfg)
        case DedupSqlParser.ParsedJoin(spec)   => join(spec, st.cfg)
      }
    }
    val stmtNs = System.nanoTime() - t0
    cached.unpersist()

    for ((out, dirty) <- sides) {
      val (resolvedBefore, linksBefore) = before(out.ctx.name)
      diagnose(out, resolvedBefore, linksBefore, st, stmtId)
      if (dirty) reducedQe += out.stats.qeSize
      if (st.isJoin) groupNs += timed(tracer.span("diag.group") {
        groupClusters += GroupEntities.group(out.drRows, out.clusterOf, out.ctx.attrs).count()
      })._2
    }
    if (!st.isJoin) groupClusters += rows.length

    val executed = sides.map(_._1.stats.comparisons)
    plan.foreach { p =>
      estLeft += p.estLeftComparisons; estRight += p.estRightComparisons
      val (l, r) = (sides.find(_._1.ctx.name == wl.tables(0).name).get._1.stats.comparisons,
        sides.find(_._1.ctx.name == wl.tables(1).name).get._1.stats.comparisons)
      estimateErrors += error(p.estLeftComparisons, l)
      estimateErrors += error(p.estRightComparisons, r)
    }
    (rows, executed.sum, stmtNs)
  }

  private def error(est: Long, executed: Long): Double =
    math.abs(est - executed).toDouble / math.max(1L, executed)

  private def timed[T](f: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, System.nanoTime() - t0)
  }

  /** Filter → Deduplicate → Group-Entities → Project → collect. */
  private def select(spec: SelectSpec, cfg: DedupConfig)
      : (Array[Row], Seq[(DedupOutcome, Boolean)], DataFrame, Option[JoinPlan]) = {
    val ctx = TableRegistry(spec.table)
    val qe  = tracer.span("executor.filter")(ctx.rows.where(spec.pred.toColumn).select(EidCol))
    val out = tracer.span("dedup.run")(Deduplicate.run(ctx, qe, cfg))
    val clusterOf = tracer.span("clusters.fromLinks")(out.clusterOf)
    val (grouped, ns) = timed(tracer.span("group.group") {
      val g = GroupEntities.group(out.drRows, clusterOf, ctx.attrs).cache()
      g.count()
      g
    })
    groupNs += ns
    val projected =
      if (spec.projection.isEmpty) grouped else grouped.select(spec.projection.map(F.col): _*)
    (tracer.span("collect")(projected.collect()), Seq(out -> false), grouped, None)
  }

  /** Planner → Deduplicate (clean side) → Deduplicate-Join → collect. */
  private def join(spec: JoinSpec, cfg: DedupConfig)
      : (Array[Row], Seq[(DedupOutcome, Boolean)], DataFrame, Option[JoinPlan]) = {
    val (lCtx, rCtx) = (TableRegistry(spec.left.table), TableRegistry(spec.right.table))
    val (plan, ns) = timed(tracer.span("planner.planJoin") {
      Planner.planJoin(lCtx, spec.left.pred, rCtx, spec.right.pred, cfg.mb)
    })
    planNs += ns
    val ((lOut, rOut), dirtyNs) =
      if (plan.dedupFirst == LeftSide) {
        val qe = tracer.span("executor.filter")(lCtx.rows.where(spec.left.pred.toColumn).select(EidCol))
        val lo = tracer.span("dedup.run")(Deduplicate.run(lCtx, qe, cfg))
        timed(tracer.span("djoin.dirtyRight") {
          DeduplicateJoin.dirtyRight(lo, rCtx, spec.right.pred.toColumn, spec.leftAttr, spec.rightAttr, cfg)
        })
      } else {
        val qe = tracer.span("executor.filter")(rCtx.rows.where(spec.right.pred.toColumn).select(EidCol))
        val ro = tracer.span("dedup.run")(Deduplicate.run(rCtx, qe, cfg))
        timed(tracer.span("djoin.dirtyLeft") {
          DeduplicateJoin.dirtyLeft(lCtx, spec.left.pred.toColumn, ro, spec.leftAttr, spec.rightAttr, cfg)
        })
      }
    dirtySideNs += dirtyNs
    val ((result, rows), jNs) = timed {
      val joined = tracer.span("djoin.joinOperation") {
        DeduplicateJoin.joinOperation(lOut, rOut, spec.leftAttr, spec.rightAttr)
      }
      val projected =
        if (spec.projection.isEmpty) joined
        else joined.select(spec.projection.map { case (t, a) => F.col(s"${t}_$a") }: _*)
      val result = projected.cache()
      tracer.span("djoin.materialize")(result.count())
      (result, tracer.span("collect")(result.collect()))
    }
    joinNs += jNs
    val leftDirty = plan.dedupFirst != LeftSide
    (rows, Seq(lOut -> leftDirty, rOut -> !leftDirty), result, Some(plan))
  }

  /** Per-outcome counts, the EQBI rebuild and the LI closure replay. */
  private def diagnose(out: DedupOutcome, resolvedBefore: Set[Long], linksBefore: Long,
                       st: Statement, stmtId: String): Unit = {
    val s = out.stats
    qe += s.qeSize; unresolved += s.unresolvedSize; dr += s.drSize
    candidateBlocks += s.candidateBlocks; comparisons += s.comparisons
    blockingMs += s.times.blockingMs; blockJoinMs += s.times.blockJoinMs
    metaBlockingMs += s.times.metaBlockingMs; comparisonMs += s.times.comparisonMs
    linksFound += (if (st.cfg.useLinkIndex) out.ctx.li.linkCount - linksBefore else out.links.size)
    if (st.cfg.useLinkIndex) { liQe += s.qeSize; liUnresolved += s.unresolvedSize }

    val ctx   = out.ctx
    val unres = if (st.cfg.useLinkIndex) out.qeIds -- resolvedBefore else out.qeIds
    if (unres.nonEmpty) tracer.span("diag.eqbi") {
      val isQ  = F.udf((id: Long) => unres.contains(id))
      val keys = ctx.tbi.where(isQ(F.col(EidCol))).select("token").distinct()
      val eqbi = ctx.retainedTbi(st.cfg.mb).join(keys, "token").withColumn("isQuery", isQ(F.col(EidCol)))
      val raw  = MetaBlocking.candidatePairs(eqbi).cache()
      val kept = if (st.cfg.mb.edgePruning) MetaBlocking.edgePruning(raw) else raw
      val pairs = kept.select("aid", "bid").as[(Long, Long)].collect()
      pairsBeforeEp += raw.count()
      pairsAfterEp += pairs.length
      if (pairs.length != s.comparisons)
        mismatches += s"$stmtId ${ctx.name}: pairs after EP ${pairs.length} != comparisons ${s.comparisons}"
      if (ctx.name == wl.tables.head.name && pairs.length > samplePairs.length) samplePairs = pairs
      raw.unpersist()
    }

    val li = if (st.cfg.useLinkIndex) ctx.li else {
      val scratch = new LinkIndex
      scratch.addLinks(out.links)
      scratch
    }
    closureNs += timed(tracer.span("diag.li.closure")(li.closure(out.qeIds)))._2
    clusterInputs += (out.drIds -> out.links)
  }
}

package repro.planner

import org.scalacheck.Prop
import org.scalacheck.Prop.propBoolean
import repro.{CatalystReference, PropSupport, SparkSpec}
import repro.core._
import repro.data.{Datasets, MotivatingExample}

/** The ER planner statistic, estimated comparisons (paper §7.2.1.i). */
class StatisticsSpec extends SparkSpec with PropSupport {

  private def pCtx = TableContext("pStat", MotivatingExample.publications(spark))
  private def vCtx = TableContext("vStat", MotivatingExample.venues(spark))

  private def estimate(ctx: TableContext, pred: Pred, mb: MbConfig = MbConfig.All): Long =
    Statistics.estimateComparisons(ctx, Statistics.selectedSet(ctx, pred), mb, useLinkIndex = true)

  test("selectedSet from an equality literal uses the literal's blocking keys") {
    val s = Statistics.selectedSet(pCtx, EqPred("venue", "EDBT"))
    assert(s == Set(1L, 6L, 8L)) // token block 'edbt'
  }
  test("selectedSet intersects the token blocks of a multi-token literal") {
    val s = Statistics.selectedSet(pCtx, EqPred("title", "consumer data"))
    assert(s == Set(6L, 7L, 8L)) // entities blocked under both 'consumer' and 'data'
  }
  test("selectedSet of IN unions per-value sets") {
    val s = Statistics.selectedSet(pCtx, InPred("venue", Seq("EDBT", "Sigmod")))
    assert(Set(1L, 6L, 8L).subsetOf(s) && s.contains(2L) == false)
  }
  test("selectedSet of AND intersects") {
    val s = Statistics.selectedSet(pCtx, AndPred(EqPred("venue", "EDBT"), EqPred("year", "2015")))
    assert(s == Set(6L, 8L))
  }
  test("selectedSet of OR unions") {
    val s = Statistics.selectedSet(pCtx, OrPred(EqPred("venue", "EDBT"), EqPred("year", "2017")))
    assert(s == Set(1L, 3L, 5L, 6L, 8L))
  }
  test("selectedSet of TruePred selects everything") {
    assert(Statistics.selectedSet(pCtx, TruePred).size == 8)
  }
  test("selectedSet falls back to filter evaluation for ranges") {
    val s = Statistics.selectedSet(pCtx, RangePred("year", 2015, 2017))
    assert(s == Set(3L, 5L, 6L, 8L))
  }

  test("estimateComparisons is zero for an empty selection") {
    assert(estimate(pCtx, EqPred("venue", "nonexistentvenuename")) == 0L)
  }
  test("estimateComparisons grows with selectivity") {
    val ds  = Datasets.ppl(spark, 1000)
    val ctx = ds.toContext
    val small = estimate(ctx, RangePred("byear", 1900, 1904))
    val large = estimate(ctx, RangePred("byear", 1900, 1979))
    assert(small < large)
  }
  test("estimateComparisons tracks the executed comparisons' branch ordering") {
    // the estimator's purpose: decide which branch yields fewer comparisons
    val ppl = Datasets.ppl(spark, 1000).toContext
    val oao = Datasets.oao(spark, 300).toContext
    val cPpl = estimate(ppl, TruePred)
    val cOao = estimate(oao, TruePred)
    assert(cOao < cPpl) // the small clean-ish table is cheaper to clean first
  }
  test("estimateComparisons excludes already-resolved entities") {
    val ctx = pCtx
    val before = estimate(ctx, EqPred("venue", "EDBT"))
    ctx.li.markResolved(Seq(1L, 6L, 8L))
    val after = estimate(ctx, EqPred("venue", "EDBT"))
    assert(before > 0 && after == 0)
  }
  test("the estimate bounds the candidate pairs, which bound the executed comparisons") {
    // C counts every block's pairs that touch the query, so it is at least
    // the distinct pairs of the same EQBI; Edge Pruning only removes pairs
    val targets = Seq(
      pCtx -> EqPred("venue", "EDBT"),
      Datasets.ppl(spark, 500).toContext -> RangePred("byear", 1900, 1940))
    for ((ctx, pred) <- targets; mb <- Seq(MbConfig.All, MbConfig.BpBf, MbConfig.BpEp)) {
      val sc    = spark.sparkContext
      val s     = Statistics.selectedSet(ctx, pred)
      val est   = estimate(ctx, pred, mb)
      val pairs = MetaBlocking.candidatePairs(sc, sc.broadcast(ctx.blockIndex(mb).restrict(s))).count()
      val executed = Deduplicate.run(ctx, s, DedupConfig(mb = mb, useLinkIndex = false))
        .stats.comparisons
      assert(s.nonEmpty && est >= pairs && pairs >= executed && executed > 0,
        s"${ctx.name} ${mb.label}: $est ≥ $pairs ≥ $executed")
    }
  }

  test("an estimate with the Link Index off prices the entities the Link Index resolved") {
    // the executor compares every QE entity when the LI is off, so the
    // plan must price them too, whatever an earlier statement resolved
    val (p, v) = (pCtx, vCtx)
    val edbt   = EqPred("venue", "EDBT")
    def plan(useLinkIndex: Boolean) = Planner.plan(p, Statistics.selectedSet(p, edbt),
      v, Statistics.selectedSet(v, TruePred), MbConfig.All, useLinkIndex)
    val fresh  = plan(useLinkIndex = false)
    Deduplicate.run(p, Set(1L, 6L, 8L), DedupConfig()) // LI on: resolves the EDBT papers
    assert(plan(useLinkIndex = true).estLeftComparisons == 0)
    assert(plan(useLinkIndex = false) == fresh)
    val spec = JoinSpec(SelectSpec("p", edbt), SelectSpec("v", TruePred), "venue", "title")
    val (_, stats) = Executor.runJoin(p, v, spec, AdvancedPlanner, DedupConfig(useLinkIndex = false))
    assert(stats.plan.contains(fresh) && fresh.estLeftComparisons > 0)
    assert(stats.sideComparisons.exists(_._1 > 0))
  }

  test("property: the driver estimate and pairs equal the Catalyst EQBI's under every MbConfig") {
    import spark.implicits._
    val sc = spark.sparkContext
    // the tables are tiny: a few shuffle partitions keep each case fast
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", 2)
    try checkProp(Prop.forAll(randomTable) { case (rows, ids) =>
      val ctx = TableContext("prop", rows.toDF("eid", "a", "b"))
      try Prop.all(Seq(MbConfig.All, MbConfig.BpBf, MbConfig.BpEp, MbConfig.None).map { mb =>
        val index = ctx.blockIndex(mb).restrict(ids)
        val eqbi  = CatalystReference.eqbi(ctx, ids, mb)
        val pairs = MetaBlocking.candidatePairs(sc, sc.broadcast(index)).collect()
          .map(e => (e.aid, e.bid) -> e.weight).toMap
        val expected = MetaBlocking.candidatePairs(eqbi).collect()
          .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
        val sameWeights = pairs.forall { case (p, w) => expected.get(p).exists(x => math.abs(x - w) < 1e-9) }
        (index.estimatedComparisons == CatalystReference.estimate(eqbi) &&
          pairs.keySet == expected.keySet && sameWeights) :| s"${mb.label} over ${rows.size} rows"
      }: _*)
      finally ctx.unpersistAll()
    }, minTests = 8)
    finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
  }
}

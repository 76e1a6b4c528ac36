package repro.planner

import repro.SparkSpec
import repro.core._
import repro.data.{Datasets, MotivatingExample}

/** The ER planner statistic, estimated comparisons (paper §7.2.1.i). */
class StatisticsSpec extends SparkSpec {

  private def pCtx = TableContext("pStat", MotivatingExample.publications(spark))
  private def vCtx = TableContext("vStat", MotivatingExample.venues(spark))

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
    assert(Statistics.estimateComparisons(pCtx, EqPred("venue", "nonexistentvenuename")) == 0L)
  }
  test("estimateComparisons grows with selectivity") {
    val ds  = Datasets.ppl(spark, 1000)
    val ctx = ds.toContext
    val small = Statistics.estimateComparisons(ctx, RangePred("byear", 1900, 1904))
    val large = Statistics.estimateComparisons(ctx, RangePred("byear", 1900, 1979))
    assert(small < large)
  }
  test("estimateComparisons tracks the executed comparisons' branch ordering") {
    // the estimator's purpose: decide which branch yields fewer comparisons
    val ppl = Datasets.ppl(spark, 1000).toContext
    val oao = Datasets.oao(spark, 300).toContext
    val cPpl = Statistics.estimateComparisons(ppl, TruePred)
    val cOao = Statistics.estimateComparisons(oao, TruePred)
    assert(cOao < cPpl) // the small clean-ish table is cheaper to clean first
  }
  test("estimateComparisons excludes already-resolved entities") {
    val ctx = pCtx
    val before = Statistics.estimateComparisons(ctx, EqPred("venue", "EDBT"))
    ctx.li.markResolved(Seq(1L, 6L, 8L))
    val after = Statistics.estimateComparisons(ctx, EqPred("venue", "EDBT"))
    assert(before > 0 && after == 0)
  }
  test("the estimate bounds the candidate pairs, which bound the executed comparisons") {
    // C counts every block's pairs that touch the query, so it is at least
    // the distinct pairs of the same EQBI; Edge Pruning only removes pairs
    val targets = Seq(
      pCtx -> EqPred("venue", "EDBT"),
      Datasets.ppl(spark, 500).toContext -> RangePred("byear", 1900, 1940))
    for ((ctx, pred) <- targets; mb <- Seq(MbConfig.All, MbConfig.BpBf, MbConfig.BpEp)) {
      val s     = Statistics.selectedSet(ctx, pred)
      val est   = Statistics.estimateComparisons(ctx, pred, mb)
      val pairs = MetaBlocking.candidatePairs(
        Deduplicate.blockJoin(ctx, Deduplicate.qbiKeys(ctx, s), s, mb)).count()
      val executed = Deduplicate.run(ctx, s, DedupConfig(mb = mb, useLinkIndex = false))
        .stats.comparisons
      assert(s.nonEmpty && est >= pairs && pairs >= executed && executed > 0,
        s"${ctx.name} ${mb.label}: $est ≥ $pairs ≥ $executed")
    }
  }
}

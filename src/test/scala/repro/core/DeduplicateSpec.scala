package repro.core

import repro.{JobCounter, SparkSpec}
import repro.benchrun.Experiments
import repro.data.{Datasets, MotivatingExample}

/** The Deduplicate operator end-to-end (paper §6.1). */
class DeduplicateSpec extends SparkSpec {

  private lazy val pubsCtx =
    TableContext("pubs", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))

  private def freshPubsCtx =
    TableContext("pubsF", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))

  test("deduplicating P1 discovers its duplicate P2") {
    val out = Deduplicate.run(freshPubsCtx, Set(1L), DedupConfig(useLinkIndex = false))
    assert(out.drIds.contains(2L))
    assert(out.links.contains((1L, 2L)))
  }

  test("deduplicating the EDBT selection finds P2 and P7 (motivating example)") {
    // QE = σ(venue='EDBT') = {P1, P6, P8}; DR must add P2 and P7
    val out = Deduplicate.run(freshPubsCtx, Set(1L, 6L, 8L), DedupConfig(useLinkIndex = false))
    assert(out.drIds == Set(1L, 2L, 6L, 7L, 8L))
  }

  test("DR is a superset of QE") {
    val out = Deduplicate.run(freshPubsCtx, Set(3L, 6L), DedupConfig(useLinkIndex = false))
    assert(Set(3L, 6L).subsetOf(out.drIds))
  }

  test("no false matches across distinct publications") {
    val out = Deduplicate.run(freshPubsCtx, Set(1L, 3L, 6L), DedupConfig(useLinkIndex = false))
    val clusters = out.clusterOf
    assert(clusters(1L) != clusters(3L) && clusters(3L) != clusters(6L))
  }

  test("empty QE yields empty DR and zero comparisons") {
    val out = Deduplicate.run(freshPubsCtx, Set.empty[Long], DedupConfig(useLinkIndex = false))
    assert(out.drIds.isEmpty && out.stats.comparisons == 0)
  }

  test("comparisons are counted and positive for a non-trivial QE") {
    val out = Deduplicate.run(freshPubsCtx, Set(1L, 6L, 8L), DedupConfig(useLinkIndex = false))
    assert(out.stats.comparisons > 0)
  }

  test("link index short-circuits repeated queries to zero comparisons") {
    val ctx = freshPubsCtx
    val first  = Deduplicate.run(ctx, Set(1L, 6L, 8L), DedupConfig())
    val second = Deduplicate.run(ctx, Set(1L, 6L, 8L), DedupConfig())
    assert(first.stats.comparisons > 0)
    assert(second.stats.comparisons == 0)
    assert(second.drIds == first.drIds)
  }

  test("link index accumulates across overlapping queries") {
    val ctx = freshPubsCtx
    Deduplicate.run(ctx, Set(1L), DedupConfig())
    val out = Deduplicate.run(ctx, Set(1L, 6L), DedupConfig())
    assert(out.stats.unresolvedSize == 1) // only P6 still unresolved
    assert(out.drIds.contains(2L))        // P1's duplicate comes from the LI
  }

  test("stats report stage times that sum into the total") {
    val out = Deduplicate.run(freshPubsCtx, Set(1L, 6L, 8L), DedupConfig(useLinkIndex = false))
    val t = out.stats.times
    assert(t.blockingMs >= 0 && t.blockJoinMs >= 0 && t.metaBlockingMs >= 0 && t.comparisonMs >= 0)
    assert(t.totalMs >= t.comparisonMs)
  }

  /** Call sites of the jobs one `Deduplicate.run` of the fixture's QE
    * launches, with adaptive execution off.
    */
  private def jobSites(cfg: DedupConfig): Vector[String] = {
    val ctx = Experiments.warm(freshPubsCtx, cfg.mb)
    JobCounter.sites(spark, s"dedup-${cfg.mb.label}-${cfg.computePc}")(Deduplicate.run(ctx, Set(1L, 6L, 8L), cfg))
  }

  test("one Spark job per stage action: 2 under ALL, 1 under BP+BF") {
    def jobsOf(mb: MbConfig) = jobSites(DedupConfig(mb = mb, useLinkIndex = false)).size
    assert(jobsOf(MbConfig.All) == 2)
    assert(jobsOf(MbConfig.BpBf) == 1)
  }

  test("PC runs after the timed stages, which launch the same jobs as without it") {
    for (mb <- Seq(MbConfig.All, MbConfig.BpBf)) {
      val plain = jobSites(DedupConfig(mb = mb, useLinkIndex = false))
      val withPc = jobSites(DedupConfig(mb = mb, useLinkIndex = false, computePc = true))
      assert(withPc.init == plain, mb.label)
      assert(withPc.last.contains("Measures.scala"), withPc.last)
    }
  }

  test("PC is computed against ground truth when requested") {
    val out = Deduplicate.run(freshPubsCtx, Set(1L, 6L, 8L),
      DedupConfig(useLinkIndex = false, computePc = true))
    assert(out.stats.pc.isDefined)
    assert(out.stats.pc.get > 0.9) // the example's duplicates co-occur strongly
  }

  test("deduplicate on generated people data reaches high recall and precision") {
    val ds  = Datasets.ppl(spark, 500)
    val ctx = ds.toContext
    val all = ctx.rows.select("eid").collect().map(_.getLong(0)).toSet
    val out = Deduplicate.run(ctx, all, DedupConfig(useLinkIndex = false, computePc = true))
    // ground truth pairs
    val truth = ds.truth.collect().map(r => (r.getLong(0), r.getLong(1)))
    val byCluster = truth.groupBy(_._2).values.map(_.map(_._1).sorted)
    val gtPairs = byCluster.flatMap(ids => ids.combinations(2).map(p => (p(0), p(1)))).toSet
    val found   = out.links.map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toSet
    val recall    = if (gtPairs.isEmpty) 1.0 else gtPairs.intersect(found).size.toDouble / gtPairs.size
    val precision = if (found.isEmpty) 1.0 else gtPairs.intersect(found).size.toDouble / found.size
    info(f"people500: recall=$recall%.3f precision=$precision%.3f pc=${out.stats.pc.get}%.3f comparisons=${out.stats.comparisons}")
    assert(recall > 0.75, s"recall too low: $recall")
    assert(precision > 0.85, s"precision too low: $precision")
    assert(out.stats.pc.get > 0.8)
  }
}

package repro.core

import org.apache.spark.sql.functions._
import repro.{CatalystReference, SparkSpec}
import repro.data.MotivatingExample

/** Deduplicate-Join operator (paper §6.2, Algorithms 1–2) on the
  * motivating example: P ⋈ V on P.venue = V.title, WHERE P.venue='EDBT'.
  */
class DeduplicateJoinSpec extends SparkSpec {

  private def pCtx = TableContext("pj", MotivatingExample.publications(spark),
    Some(MotivatingExample.publicationsTruth(spark)))
  private def vCtx = TableContext("vj", MotivatingExample.venues(spark),
    Some(MotivatingExample.venuesTruth(spark)))

  private val cfg = DedupConfig(useLinkIndex = false)

  test("dirty-right reduces the right side to joinable entities before cleaning it") {
    val p = pCtx; val v = vCtx
    val leftQe  = p.rows.where(col("venue") === "EDBT").select("eid")
    val leftDr  = Deduplicate.run(p, leftQe, cfg)
    val (_, rightDr) = DeduplicateJoin.dirtyRight(leftDr, v, lit(true), "venue", "title", cfg)
    // left DR venues: {EDBT, International Conference on Extending DB Tech}
    // → right QE = {V1, V4}; V4's duplicate V1 already in QE
    assert(rightDr.qeIds == Set(1L, 4L))
    assert(rightDr.drIds == Set(1L, 4L))
  }

  test("dirty-left mirrors dirty-right") {
    val p = pCtx; val v = vCtx
    val rightQe = v.rows.select("eid") // no filter on V
    val rightDr = Deduplicate.run(v, rightQe, cfg)
    val (leftDr, _) = DeduplicateJoin.dirtyLeft(p, col("venue") === "EDBT", rightDr, "venue", "title", cfg)
    // left QE = σ(venue=EDBT) ∩ joins-with-V = {P1, P6, P8}; dups pulled in
    assert(leftDr.qeIds == Set(1L, 6L, 8L))
    assert(leftDr.drIds == Set(1L, 2L, 6L, 7L, 8L))
  }

  test("join operation joins at cluster granularity using all value variants") {
    val p = pCtx; val v = vCtx
    val leftDr  = Deduplicate.run(p, p.rows.where(col("venue") === "EDBT").select("eid"), cfg)
    val (_, rightDr) = DeduplicateJoin.dirtyRight(leftDr, v, lit(true), "venue", "title", cfg)
    val joined = DeduplicateJoin.joinOperation(leftDr, rightDr, "venue", "title")
    // two publication groups × one venue group (V1 ≡ V4)
    assert(joined.count() == 2)
    val ranks = joined.select("vj_rank").collect().map(_.getString(0)).toSet
    assert(ranks == Set("1")) // V4's missing rank filled from V1
  }

  test("join operation output carries prefixed grouped columns of both sides") {
    val p = pCtx; val v = vCtx
    val leftDr  = Deduplicate.run(p, p.rows.where(col("venue") === "EDBT").select("eid"), cfg)
    val (_, rightDr) = DeduplicateJoin.dirtyRight(leftDr, v, lit(true), "venue", "title", cfg)
    val joined = DeduplicateJoin.joinOperation(leftDr, rightDr, "venue", "title")
    val cols = joined.columns.toSet
    assert(Set("pj_title", "pj_year", "vj_title", "vj_rank", "lcluster", "rcluster").subsetOf(cols))
  }

  test("entities that do not join are absent from the output") {
    val p = pCtx; val v = vCtx
    val leftDr  = Deduplicate.run(p, p.rows.where(col("venue") === "EDBT").select("eid"), cfg)
    val (_, rightDr) = DeduplicateJoin.dirtyRight(leftDr, v, lit(true), "venue", "title", cfg)
    val joined = DeduplicateJoin.joinOperation(leftDr, rightDr, "venue", "title")
    val vTitles = joined.select("vj_title").collect().map(_.getString(0)).mkString
    assert(!vTitles.contains("CIDR") && !vTitles.contains("SIGMOD"))
  }

  test("null join values never match") {
    import spark.implicits._
    val l = TableContext("ln", Seq((1L, null.asInstanceOf[String], "x")).toDF("eid", "k", "a"))
    val r = TableContext("rn", Seq((2L, null.asInstanceOf[String], "y")).toDF("eid", "k", "b"))
    val lDr = Deduplicate.run(l, Set(1L), cfg)
    val rDr = Deduplicate.run(r, Set(2L), cfg)
    assert(DeduplicateJoin.joinOperation(lDr, rDr, "k", "k").count() == 0)
  }

  test("join operation matches its Catalyst reference, schema included") {
    import spark.implicits._
    // clusters are given, so each value variant's cluster is known
    def outcome(ctx: TableContext, clusterOf: Map[Long, Long]) =
      DedupOutcome(ctx, clusterOf.keySet, clusterOf, Nil, DedupStats(0, 0, 0, 0, 0, StageTimes(), None))
    val l = TableContext("lv", Seq[(Long, String, String)](
      (1L, "EDBT", "1"), (2L, "Extending DB Tech", "x y"), (3L, null, "3"), (4L, "  ", " "),
      (5L, "", ""), (6L, "edbt", null), (7L, "EDBT ", "7"), (8L, "ICDE", "s")).toDF("eid", "venue", "a"))
    val r = TableContext("rv", Seq[(Long, String, Int)](
      (10L, "EDBT", 1), (11L, "Extending DB Tech", 2), (12L, null, 3), (13L, "  ", 4),
      (14L, "EDBT ", 5), (15L, "VLDB", 6), (16L, "", 7)).toDF("eid", "title", "rank"))
    val lOut = outcome(l, Map(1L -> 1L, 2L -> 1L, 3L -> 3L, 4L -> 3L, 5L -> 5L, 6L -> 6L, 7L -> 6L, 8L -> 8L))
    val rOut = outcome(r, Map(10L -> 10L, 11L -> 11L, 12L -> 12L, 13L -> 13L, 14L -> 14L, 15L -> 14L, 16L -> 16L))
    val joined   = DeduplicateJoin.joinOperation(lOut, rOut, "venue", "title")
    val expected = CatalystReference.joinOperation(lOut, rOut, "venue", "title")
    assert(joined.schema == expected.schema)
    assert(joined.columns.toSeq == Seq("rcluster", "lcluster", "lv_members", "lv_venue", "lv_a",
      "rv_members", "rv_title", "rv_rank"))
    assert(joined.collect().toSet == expected.collect().toSet)
    // EDBT / Extending DB Tech of cluster 1 meet V10 and V11; "EDBT " of
    // cluster 6 meets V14; null and blank values meet nothing
    assert(joined.select("lcluster", "rcluster").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq ==
      Seq((1L, 10L), (1L, 11L), (6L, 14L)))
    // a numeric join attribute joins by its string cast: "1", "3", "7"
    val byRank = DeduplicateJoin.joinOperation(lOut, rOut, "a", "rank")
    val byRankExpected = CatalystReference.joinOperation(lOut, rOut, "a", "rank")
    assert(byRank.schema == byRankExpected.schema)
    assert(byRank.collect().toSet == byRankExpected.collect().toSet && byRank.count() == 3)
  }

  test("a join on the entity id reduces the dirty side and matches its Catalyst reference") {
    import spark.implicits._
    val l = TableContext("le", Seq[(Long, Option[Int], String)](
      (1L, Some(10), "a"), (2L, Some(11), "b"), (3L, Some(99), "c"), (4L, None, "d")).toDF("eid", "vid", "a"))
    val r = TableContext("re", Seq((10L, "EDBT"), (11L, "Extending DB Tech"), (12L, "VLDB")).toDF("eid", "title"))
    // the reduction reads the entity id on either side
    val (_, rightDr) = DeduplicateJoin.dirtyRight(Deduplicate.run(l, Set(1L, 3L), cfg), r, lit(true), "vid", "eid", cfg)
    assert(rightDr.qeIds == Set(10L))
    val (leftDr, _) = DeduplicateJoin.dirtyLeft(l, lit(true), Deduplicate.run(r, Set(11L, 12L), cfg), "vid", "eid", cfg)
    assert(leftDr.qeIds == Set(2L))
    // V10 ≡ V11: both ids join cluster 10, at cluster granularity
    def outcome(ctx: TableContext, clusterOf: Map[Long, Long]) =
      DedupOutcome(ctx, clusterOf.keySet, clusterOf, Nil, DedupStats(0, 0, 0, 0, 0, StageTimes(), None))
    val lOut = outcome(l, Map(1L -> 1L, 2L -> 2L, 3L -> 3L, 4L -> 4L))
    val rOut = outcome(r, Map(10L -> 10L, 11L -> 10L, 12L -> 12L))
    val joined   = DeduplicateJoin.joinOperation(lOut, rOut, "vid", "eid")
    val expected = CatalystReference.joinOperation(lOut, rOut, "vid", "eid")
    assert(joined.schema == expected.schema)
    assert(joined.collect().toSet == expected.collect().toSet)
    assert(joined.select("lcluster", "rcluster").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq ==
      Seq((1L, 10L), (2L, 10L)))
  }
}

package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
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

  test("prefix renames every column") {
    import spark.implicits._
    val df = Seq((1L, "a")).toDF("cluster", "x")
    assert(DeduplicateJoin.prefix(df, "t").columns.toSeq == Seq("t_cluster", "t_x"))
  }
}

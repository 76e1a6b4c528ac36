package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{Datasets, MotivatingExample}

/** The Batch Approach baseline (paper §5): clean everything, then query. */
class BatchERSpec extends SparkSpec {

  private def freshCtx =
    TableContext("pubsBatch", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))

  test("batch ER resolves every cluster of the motivating example publications") {
    val b = BatchER.run(freshCtx)
    // P1≡P2 and P6≡P7≡P8 must be grouped (P3/P4/P5 grouping is matcher-dependent)
    assert(b.clusterOf(1L) == b.clusterOf(2L))
    assert(b.clusterOf(6L) == b.clusterOf(7L) && b.clusterOf(7L) == b.clusterOf(8L))
  }

  test("batch ER counts comparisons over the whole collection") {
    val b = BatchER.run(freshCtx)
    assert(b.comparisons > 0)
  }

  /** Group-Entities over a batch answer, as the Executor's answer step. */
  private def grouped(o: DedupOutcome) = GroupEntities.group(o.drRows, o.clusterOf, o.ctx.attrs)

  test("grouped collection has one row per cluster") {
    val b = BatchER.run(freshCtx)
    assert(grouped(b.outcome(lit(true))).count() == b.clusterOf.values.toSet.size)
  }

  test("matchingClusters applies member-level predicate semantics") {
    val b = BatchER.run(freshCtx)
    // venue='EDBT' matches P1, P6, P8 → their clusters
    val o = b.outcome(col("venue") === "EDBT")
    assert(o.qeIds == Set(1L, 6L, 8L))
    assert(o.drIds.map(b.clusterOf) == Set(b.clusterOf(1L), b.clusterOf(6L)))
    assert(o.links.nonEmpty && o.links.forall { case (x, y) => o.drIds(x) && o.drIds(y) })
  }

  test("select returns the grouped rows of matching clusters") {
    val b = BatchER.run(freshCtx)
    val rows = grouped(b.outcome(col("venue") === "EDBT")).collect()
    assert(rows.length == 2)
    val years = rows.map(r => r.getString(r.fieldIndex("year"))).toSet
    assert(years == Set("2008", "2015"))
  }

  test("batch run is memoised per context and config") {
    val ctx = freshCtx
    val b1 = BatchER.run(ctx)
    val b2 = BatchER.run(ctx)
    assert(b1 eq b2)
    // the batch run ignores computePc, so the memo does too
    assert(BatchER.run(ctx, DedupConfig(computePc = true)) eq b1)
  }

  test("batch runs of two contexts are kept apart") {
    val pubs   = freshCtx
    val venues = TableContext("venuesBatch", MotivatingExample.venues(spark))
    val (bp, bv) = (BatchER.run(pubs), BatchER.run(venues))
    assert((bp.ctx eq pubs) && (bv.ctx eq venues))
    assert(BatchER.run(pubs) eq bp)
  }

  test("batch ER on generated venues groups surface-form duplicates") {
    val ds  = Datasets.oagv(spark, 200)
    val ctx = ds.toContext
    val b   = BatchER.run(ctx)
    val truth = ds.truth.collect().map(r => (r.getLong(0), r.getLong(1)))
    val gtPairs = truth.groupBy(_._2).values.flatMap(g =>
      g.map(_._1).sorted.combinations(2).map(p => (p(0), p(1)))).toSet
    val found = b.links.map { case (a, c) => (math.min(a, c), math.max(a, c)) }.toSet
    val recall = if (gtPairs.isEmpty) 1.0 else gtPairs.intersect(found).size.toDouble / gtPairs.size
    val precision = if (found.isEmpty) 1.0 else gtPairs.intersect(found).size.toDouble / found.size
    info(f"oagv200: recall=$recall%.3f precision=$precision%.3f comparisons=${b.comparisons}")
    // the paper evaluates effectiveness via PC (recall) only; matching
    // precision is a property of the orthogonal resolution function
    assert(recall > 0.7, s"recall $recall")
    assert(precision > 0.7, s"precision $precision")
  }

  test("batch ER on generated orgs groups name variants") {
    val ds  = Datasets.oao(spark, 300)
    val ctx = ds.toContext
    val b   = BatchER.run(ctx)
    val truth = ds.truth.collect().map(r => (r.getLong(0), r.getLong(1)))
    val gtPairs = truth.groupBy(_._2).values.flatMap(g =>
      g.map(_._1).sorted.combinations(2).map(p => (p(0), p(1)))).toSet
    val found  = b.links.map { case (a, c) => (math.min(a, c), math.max(a, c)) }.toSet
    val recall = if (gtPairs.isEmpty) 1.0 else gtPairs.intersect(found).size.toDouble / gtPairs.size
    info(f"oao300: recall=$recall%.3f comparisons=${b.comparisons}")
    assert(recall > 0.6, s"recall $recall")
  }
}

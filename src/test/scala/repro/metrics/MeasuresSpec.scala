package repro.metrics

import repro.SparkSpec
import repro.core.TableContext
import repro.data.MotivatingExample

/** PC and timing measures (paper §9.1). */
class MeasuresSpec extends SparkSpec {

  private def ctx =
    TableContext("pubsM", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))

  private def pairsDf(pairs: (Long, Long)*) = {
    import spark.implicits._
    pairs.toSeq.toDF("aid", "bid")
  }

  test("timed returns the value and a non-negative duration") {
    val (v, ms) = Measures.timed { 41 + 1 }
    assert(v == 42 && ms >= 0)
  }

  test("PC is 1 when all ground-truth pairs of QE co-occur") {
    // QE = {1}: GT pairs touching it = (1,2)
    assert(Measures.pairCompleteness(ctx, Set(1L), pairsDf((1L, 2L))) == 1.0)
  }

  test("PC is 0 when no ground-truth pair survives") {
    assert(Measures.pairCompleteness(ctx, Set(1L), pairsDf((3L, 4L))) == 0.0)
  }

  test("PC counts only ground-truth pairs touching the query side") {
    // QE = {6}: GT pairs with an endpoint in QE are (6,7) and (6,8);
    // (7,8) is in the same cluster but touches QE with neither endpoint
    assert(Measures.pairCompleteness(ctx, Set(6L), pairsDf((6L, 7L), (6L, 8L))) == 1.0)
  }

  test("PC is fractional when a touching pair is missed") {
    assert(Measures.pairCompleteness(ctx, Set(6L), pairsDf((6L, 7L))) == 0.5)
  }

  test("PC is 1 for a query with no ground-truth duplicates") {
    import spark.implicits._
    val clean = TableContext("cleanM",
      Seq((1L, "a"), (2L, "b")).toDF("eid", "v"),
      Some(Seq((1L, 1L), (2L, 2L)).toDF("eid", "cluster")))
    assert(Measures.pairCompleteness(clean, Set(1L, 2L), pairsDf()) == 1.0)
  }

  test("PC requires registered ground truth") {
    val noTruth = TableContext("noTruth", MotivatingExample.publications(spark))
    intercept[IllegalStateException](Measures.pairCompleteness(noTruth, Set(1L), pairsDf()))
  }
}

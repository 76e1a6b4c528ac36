package repro.integration

import repro.SparkSpec
import repro.core._
import repro.data.MotivatingExample
import repro.planner._
import repro.sql.QueryEr

/** End-to-end reproduction of the paper's §2 motivating example:
  * Tables 1–2 in, Table 3 out.
  */
class MotivatingExampleSpec extends SparkSpec {

  private val cfg = DedupConfig(useLinkIndex = false)

  private def pCtx = TableContext("P", MotivatingExample.publications(spark),
    Some(MotivatingExample.publicationsTruth(spark)))
  private def vCtx = TableContext("V", MotivatingExample.venues(spark),
    Some(MotivatingExample.venuesTruth(spark)))

  private def spec = JoinSpec(
    SelectSpec("P", EqPred("venue", "EDBT")),
    SelectSpec("V", TruePred),
    "venue", "title",
    Seq(("P", "title"), ("P", "year"), ("V", "rank")))

  test("plain SQL over the dirty tables misses the duplicates (the paper's problem)") {
    QueryEr.register(spark, "pm", MotivatingExample.publications(spark))
    QueryEr.register(spark, "vm", MotivatingExample.venues(spark))
    val plain = spark.sql(
      "SELECT pm.title, pm.year, vm.rank FROM pm JOIN vm ON pm.venue = vm.title WHERE pm.venue = 'EDBT'")
    // only P1, P6, P8 join V4 — and V4's rank is null
    assert(plain.count() == 3)
    assert(plain.collect().forall(_.isNullAt(2)))
  }

  test("the Dedupe query returns exactly Table 3") {
    val (out, _) = Executor.runJoin(pCtx, vCtx, spec, AdvancedPlanner, cfg)
    val rows = out.collect()
      .map(r => (r.getString(0).split(" \\| ").toSet, r.getString(1), r.getString(2)))
      .toSet
    assert(rows == Set(
      (Set("Collective Entity Resolution", "Collective E.R."), "2008", "1"),
      (Set("E.R for consumer data", "Entity-Resolution for consumer data"), "2015", "1"),
    ))
  }

  test("Table 3 under the naive solution is identical") {
    val (out, _) = Executor.runJoin(pCtx, vCtx, spec, NaivePlanner, cfg)
    assert(out.count() == 2)
    assert(out.collect().map(_.getString(2)).toSet == Set("1"))
  }

  test("grouped year fills P7's missing year from its duplicates") {
    val (out, _) = Executor.runJoin(pCtx, vCtx, spec, AdvancedPlanner, cfg)
    val years = out.collect().map(_.getString(1)).toSet
    assert(years == Set("2008", "2015")) // no empty year in the output
  }

  test("the venue group fuses EDBT with its full name (V1 ≡ V4)") {
    val full = spec.copy(projection = Nil)
    val (out, _) = Executor.runJoin(pCtx, vCtx, full, AdvancedPlanner, cfg)
    val titles = out.select("V_title").collect().map(_.getString(0)).toSet
    assert(titles == Set("EDBT | International Conference on Extending Database Technology"))
  }
}

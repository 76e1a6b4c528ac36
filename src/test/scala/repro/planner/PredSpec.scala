package repro.planner

import repro.{Oracle, SparkSpec}

/** The predicate algebra — semantics checked against DuckDB. */
class PredSpec extends SparkSpec {

  private def table = {
    import spark.implicits._
    Seq(
      (1L, "EDBT", "2008"),
      (2L, "SIGMOD", "2017"),
      (3L, "EDBT", null),
      (4L, "CIDR", "20x7"), // corrupted year
      (5L, "VLDB", "1999"),
    ).toDF("eid", "venue", "year")
  }

  private def check(pred: Pred, duckWhere: String): Unit = {
    val t = table
    Oracle.assertEquivalent(
      t.where(pred.toColumn).select("eid"),
      s"SELECT eid FROM t WHERE $duckWhere",
      "t" -> t)
  }

  test("EqPred matches string equality") {
    check(EqPred("venue", "EDBT"), "venue = 'EDBT'")
  }
  test("InPred matches IN lists") {
    check(InPred("venue", Seq("EDBT", "CIDR")), "venue IN ('EDBT', 'CIDR')")
  }
  test("CmpPred ignores non-numeric values like SQL try_cast") {
    check(CmpPred("year", ">=", 2008), "TRY_CAST(year AS DOUBLE) >= 2008")
  }
  test("RangePred is inclusive on both ends") {
    check(RangePred("year", 1999, 2008), "TRY_CAST(year AS DOUBLE) BETWEEN 1999 AND 2008")
  }
  test("ModLtPred selects by entity id") {
    check(ModLtPred(2, 1), "TRY_CAST(eid AS BIGINT) % 2 = 0")
  }
  test("AndPred conjoins") {
    check(AndPred(EqPred("venue", "EDBT"), CmpPred("year", "<", 2010)),
      "venue = 'EDBT' AND TRY_CAST(year AS DOUBLE) < 2010")
  }
  test("OrPred disjoins") {
    check(OrPred(EqPred("venue", "CIDR"), EqPred("venue", "VLDB")),
      "venue = 'CIDR' OR venue = 'VLDB'")
  }
  test("TruePred selects everything") {
    check(TruePred, "1 = 1")
  }
  test("CmpPred rejects unknown operators") {
    intercept[IllegalArgumentException](CmpPred("year", "!=", 1.0).toColumn)
  }
}

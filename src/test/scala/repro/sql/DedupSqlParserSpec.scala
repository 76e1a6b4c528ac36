package repro.sql

import repro.SparkSpec
import repro.planner._

/** The DEDUP SQL front-end (paper §3). */
class DedupSqlParserSpec extends SparkSpec {
  import DedupSqlParser._

  test("isDedup detects the keyword case-insensitively") {
    assert(isDedup("SELECT DEDUP * FROM t"))
    assert(isDedup("select dedup a, b from t where x = 1"))
    assert(isDedup("  SELECT  Dedup title FROM p"))
  }
  test("isDedup rejects plain SQL") {
    assert(!isDedup("SELECT * FROM t"))
    assert(!isDedup("SELECT dedup_col FROM t")) // identifier, not keyword
  }
  test("strip removes only the keyword") {
    assert(strip("SELECT DEDUP * FROM t") == "SELECT * FROM t")
  }

  test("parses a single-table query with equality predicate") {
    val ParsedSelect(spec) = parse(spark, "SELECT DEDUP * FROM pubs WHERE venue = 'EDBT'")
    assert(spec.table == "pubs")
    assert(spec.pred == EqPred("venue", "EDBT"))
    assert(spec.projection.isEmpty)
  }
  test("parses projections") {
    val ParsedSelect(spec) = parse(spark, "SELECT DEDUP title, year FROM pubs")
    assert(spec.projection == Seq("title", "year"))
  }
  test("parses IN lists") {
    val ParsedSelect(spec) = parse(spark, "SELECT DEDUP * FROM pubs WHERE venue IN ('EDBT', 'SIGMOD')")
    assert(spec.pred == InPred("venue", Seq("EDBT", "SIGMOD")))
  }
  test("parses numeric comparisons") {
    val ParsedSelect(spec) = parse(spark, "SELECT DEDUP * FROM pubs WHERE year >= 2010")
    assert(spec.pred == CmpPred("year", ">=", 2010.0))
  }
  test("parses AND/OR combinations") {
    val ParsedSelect(spec) =
      parse(spark, "SELECT DEDUP * FROM pubs WHERE venue = 'EDBT' AND year > 2010")
    assert(spec.pred == AndPred(EqPred("venue", "EDBT"), CmpPred("year", ">", 2010.0)))
  }
  test("parses BETWEEN into a range predicate") {
    val ParsedSelect(spec) =
      parse(spark, "SELECT DEDUP * FROM pubs WHERE year BETWEEN 2000 AND 2010")
    assert(spec.pred == RangePred("year", 2000.0, 2010.0))
  }

  test("parses a two-table equi-join with side-routed predicates") {
    val ParsedJoin(spec) = parse(spark,
      "SELECT DEDUP p.title, p.year, v.rank FROM p INNER JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'")
    assert(spec.left.table == "p" && spec.right.table == "v")
    assert(spec.leftAttr == "venue" && spec.rightAttr == "title")
    assert(spec.left.pred == EqPred("venue", "EDBT"))
    assert(spec.right.pred == TruePred)
    assert(spec.projection == Seq(("p", "title"), ("p", "year"), ("v", "rank")))
  }
  test("join condition sides may be written in either order") {
    val ParsedJoin(spec) = parse(spark,
      "SELECT DEDUP * FROM p JOIN v ON v.title = p.venue")
    assert(spec.leftAttr == "venue" && spec.rightAttr == "title")
  }
  test("predicates qualified with the right table route right") {
    val ParsedJoin(spec) = parse(spark,
      "SELECT DEDUP * FROM p JOIN v ON p.venue = v.title WHERE v.rank = '1'")
    assert(spec.left.pred == TruePred)
    assert(spec.right.pred == EqPred("rank", "1"))
  }
  test("conjunctions split across both sides") {
    val ParsedJoin(spec) = parse(spark,
      "SELECT DEDUP * FROM p JOIN v ON p.venue = v.title WHERE p.year = '2008' AND v.rank = '1'")
    assert(spec.left.pred == EqPred("year", "2008"))
    assert(spec.right.pred == EqPred("rank", "1"))
  }
  test("aliases qualify columns in ON, WHERE and SELECT; specs name the tables") {
    val ParsedJoin(spec) = parse(spark,
      "SELECT DEDUP pub.title, ven.rank FROM p AS pub JOIN v ven ON ven.title = pub.venue " +
        "WHERE ven.title = 'EDBT' AND pub.year = '2008'")
    assert(spec.left.table == "p" && spec.right.table == "v")
    assert(spec.leftAttr == "venue" && spec.rightAttr == "title")
    assert(spec.left.pred == EqPred("year", "2008"))
    assert(spec.right.pred == EqPred("title", "EDBT"))
    assert(spec.projection == Seq(("p", "title"), ("v", "rank")))
  }
  test("rejects a WHERE term that names both tables") {
    intercept[IllegalArgumentException](parse(spark,
      "SELECT DEDUP * FROM p JOIN v ON p.venue = v.title WHERE p.year = '2008' OR v.title = 'EDBT'"))
  }
  test("rejects a qualifier that names no FROM relation") {
    intercept[IllegalArgumentException](parse(spark,
      "SELECT DEDUP * FROM p JOIN v ON p.venue = v.title WHERE x.year = '2008'"))
    intercept[IllegalArgumentException](parse(spark, "SELECT DEDUP * FROM p WHERE x.year = '2008'"))
  }
  test("rejects a self-join") {
    // the Link Index is per table: both sides would share one
    intercept[IllegalArgumentException](parse(spark,
      "SELECT DEDUP a.title, b.title FROM p a JOIN p b ON a.title = b.title WHERE a.venue = 'EDBT'"))
    intercept[IllegalArgumentException](parse(spark, "SELECT DEDUP * FROM p JOIN P ON p.venue = P.title"))
  }
  test("rejects a SELECT-list alias rather than dropping its name") {
    val e = intercept[IllegalArgumentException](parse(spark,
      "SELECT DEDUP p.title AS t, v.rank FROM p JOIN v ON p.venue = v.title"))
    assert(e.getMessage.contains("unsupported projection"), e)
    intercept[IllegalArgumentException](parse(spark, "SELECT DEDUP title AS t FROM p"))
  }
  test("rejects a non-numeric literal in a numeric comparison") {
    // a rejected query, not a NumberFormatException escaping the parser
    for (where <- Seq("year >= 'abc'", "year BETWEEN 'abc' AND 2010")) {
      val e = intercept[IllegalArgumentException](parse(spark, s"SELECT DEDUP * FROM p WHERE $where"))
      assert(e.getClass == classOf[IllegalArgumentException], e)
    }
  }

  test("rejects non-dedup statements") {
    intercept[IllegalArgumentException](parse(spark, "SELECT * FROM t"))
  }
  test("rejects unsupported WHERE shapes") {
    intercept[IllegalArgumentException](
      parse(spark, "SELECT DEDUP * FROM t WHERE a LIKE 'x%'"))
    intercept[IllegalArgumentException](
      parse(spark, "SELECT DEDUP * FROM t WHERE venue IN ('EDBT', title)"))
  }
}

package repro.sql

import repro.SparkSpec
import repro.core.DedupConfig
import repro.data.MotivatingExample

/** The QueryER facade and the Catalyst parser extension. */
class QueryErSpec extends SparkSpec {

  private def registerExample(): Unit = {
    QueryEr.register(spark, "p", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))
    QueryEr.register(spark, "v", MotivatingExample.venues(spark), Some(MotivatingExample.venuesTruth(spark)))
  }

  test("registry lookups are case-insensitive and report unknown tables") {
    registerExample()
    assert(TableRegistry.get("P").isDefined)
    intercept[NoSuchElementException](TableRegistry("nope"))
  }

  test("SELECT DEDUP over one table groups duplicates") {
    registerExample()
    val out = QueryEr.sql(spark, "SELECT DEDUP * FROM p WHERE venue = 'EDBT'",
      cfg = DedupConfig(useLinkIndex = false))
    assert(out.count() == 2)
  }

  test("the motivating example SQL reproduces Table 3") {
    registerExample()
    val out = QueryEr.sql(spark,
      "SELECT DEDUP p.title, p.year, v.rank FROM p INNER JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'",
      cfg = DedupConfig(useLinkIndex = false))
    val rows = out.collect().map(r => (r.getString(0).split(" \\| ").toSet, r.getString(1), r.getString(2))).toSet
    assert(rows == Set(
      (Set("Collective Entity Resolution", "Collective E.R."), "2008", "1"),
      (Set("E.R for consumer data", "Entity-Resolution for consumer data"), "2015", "1"),
    ))
  }

  test("an aliased join returns the rows of the unaliased one") {
    registerExample()
    def rows(sql: String) =
      QueryEr.sql(spark, sql, cfg = DedupConfig(useLinkIndex = false)).collect().map(_.toSeq).toSet
    val plain = rows("SELECT DEDUP * FROM p JOIN v ON p.venue = v.title WHERE v.title = 'EDBT'")
    assert(plain.size == 2)
    assert(rows("SELECT DEDUP * FROM p AS pub JOIN v AS ven ON pub.venue = ven.title " +
      "WHERE ven.title = 'EDBT'") == plain)
  }

  test("non-DEDUP SQL keeps standard semantics through the extension parser") {
    registerExample()
    // the temp view registered alongside the context serves plain SQL
    assert(spark.sql("SELECT * FROM p WHERE venue = 'EDBT'").count() == 3)
  }

  test("the injected parser handles SELECT DEDUP through spark.sql") {
    registerExample()
    // Build a sibling session (same SparkContext) with the QueryER extensions.
    val active  = spark
    org.apache.spark.sql.SparkSession.clearActiveSession()
    org.apache.spark.sql.SparkSession.clearDefaultSession()
    try {
      val extSession = org.apache.spark.sql.SparkSession.builder()
        .master(active.sparkContext.master)
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .withExtensions(new QueryErExtensions)
        .getOrCreate()
      try {
        QueryEr.register(extSession, "pext", MotivatingExample.publications(extSession))
        val out = extSession.sql("SELECT DEDUP * FROM pext WHERE venue = 'EDBT'")
        assert(out.count() == 2)
        // plain SQL still parses through the delegate
        assert(extSession.sql("SELECT 1 AS one").collect()(0).getInt(0) == 1)
      } finally {
        // leave the shared context intact; only drop the session
      }
    } finally {
      org.apache.spark.sql.SparkSession.setActiveSession(active)
      org.apache.spark.sql.SparkSession.setDefaultSession(active)
    }
  }

  test("an unknown SELECT column is rejected before ER touches the Link Index") {
    registerExample()
    val li = TableRegistry("p").li
    for (sql <- Seq(
        "SELECT DEDUP nosuch FROM p WHERE venue = 'Sigmod'",
        "SELECT DEDUP p.nosuch FROM p JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'",
        "SELECT DEDUP p.cluster FROM p JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'")) {
      intercept[IllegalArgumentException](QueryEr.sql(spark, sql))
      assert(li.resolvedCount == 0 && li.linkCount == 0, sql)
    }
    // the answer's own columns resolve, in any case
    assert(QueryEr.sql(spark, "SELECT DEDUP TITLE, cluster, Members FROM p WHERE venue = 'Sigmod'",
      cfg = DedupConfig(useLinkIndex = false)).columns.length == 3)
  }

  test("an unknown ON column is rejected before ER touches either Link Index") {
    registerExample()
    val lis = Seq(TableRegistry("p").li, TableRegistry("v").li)
    for (sql <- Seq(
        "SELECT DEDUP * FROM p JOIN v ON p.nosuch = v.title WHERE p.venue = 'EDBT'",
        "SELECT DEDUP * FROM p JOIN v ON p.venue = v.nosuch WHERE p.venue = 'EDBT'")) {
      intercept[IllegalArgumentException](QueryEr.sql(spark, sql))
      assert(lis.forall(li => li.resolvedCount == 0 && li.linkCount == 0), sql)
    }
    // the entity id joins, in any case
    assert(QueryEr.sql(spark, "SELECT DEDUP * FROM p JOIN v ON p.EID = v.eid WHERE p.venue = 'EDBT'",
      cfg = DedupConfig(useLinkIndex = false)).columns.nonEmpty)
  }

  test("sqlWithStats exposes executed comparisons") {
    registerExample()
    val (_, stats) = QueryEr.sqlWithStats(spark, "SELECT DEDUP * FROM p WHERE venue = 'EDBT'",
      cfg = DedupConfig(useLinkIndex = false))
    assert(stats.comparisons > 0)
  }
}

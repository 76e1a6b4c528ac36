package repro.core

import repro.SparkSpec
import repro.data.MotivatingExample

/** Group-Entities operator (paper §6.3, Table 3 presentation). */
class GroupEntitiesSpec extends SparkSpec {

  private def pubs = MotivatingExample.publications(spark)

  test("groups duplicate entities into a single record") {
    val clusters = Map(1L -> 1L, 2L -> 1L)
    val rows = pubs.where("eid IN (1, 2)")
    val g = GroupEntities.group(rows, clusters, Seq("title", "author", "venue", "year"))
    assert(g.count() == 1)
  }

  test("concatenates distinct member values with ' | '") {
    val clusters = Map(1L -> 1L, 2L -> 1L)
    val rows = pubs.where("eid IN (1, 2)")
    val g = GroupEntities.group(rows, clusters, Seq("title", "year")).collect()(0)
    val title = g.getString(g.fieldIndex("title"))
    assert(title.split(" \\| ").toSet ==
      Set("Collective Entity Resolution", "Collective E.R."))
  }

  test("same values across records are grouped once (year 2008)") {
    val clusters = Map(1L -> 1L, 2L -> 1L)
    val rows = pubs.where("eid IN (1, 2)")
    val g = GroupEntities.group(rows, clusters, Seq("year")).collect()(0)
    assert(g.getString(g.fieldIndex("year")) == "2008")
  }

  test("nulls are replaced by existing values (P1 author is null)") {
    val clusters = Map(1L -> 1L, 2L -> 1L)
    val rows = pubs.where("eid IN (1, 2)")
    val g = GroupEntities.group(rows, clusters, Seq("author")).collect()(0)
    assert(g.getString(g.fieldIndex("author")) == "Allan Blake")
  }

  test("all-null attribute groups to an empty value") {
    import spark.implicits._
    val rows = Seq((1L, null.asInstanceOf[String]), (2L, null.asInstanceOf[String])).toDF("eid", "a")
    val g = GroupEntities.group(rows, Map(1L -> 1L, 2L -> 1L), Seq("a")).collect()(0)
    assert(g.getString(g.fieldIndex("a")) == "")
  }

  test("members column lists sorted member ids") {
    val clusters = Map(6L -> 6L, 7L -> 6L, 8L -> 6L)
    val rows = pubs.where("eid IN (6, 7, 8)")
    val g = GroupEntities.group(rows, clusters, Seq("title")).collect()(0)
    assert(g.getString(g.fieldIndex("members")) == "6,7,8")
  }

  test("unclustered entities stay singleton groups") {
    val rows = pubs.where("eid IN (3, 4)")
    val g = GroupEntities.group(rows, Map.empty, Seq("title"))
    assert(g.count() == 2)
  }

  test("cluster column is the representative id") {
    val rows = pubs.where("eid IN (1, 2)")
    val g = GroupEntities.group(rows, Map(1L -> 1L, 2L -> 1L), Seq("title")).collect()(0)
    assert(g.getLong(g.fieldIndex("cluster")) == 1L)
  }

  test("hyper-entity of the motivating example venue group") {
    val v = MotivatingExample.venues(spark)
    val g = GroupEntities.group(v.where("eid IN (1, 4)"), Map(1L -> 1L, 4L -> 1L),
      Seq("title", "rank")).collect()(0)
    val title = g.getString(g.fieldIndex("title")).split(" \\| ").toSet
    assert(title == Set("EDBT", "International Conference on Extending Database Technology"))
    assert(g.getString(g.fieldIndex("rank")) == "1") // null rank of V4 replaced by V1's
  }
}

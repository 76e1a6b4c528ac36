package repro.core

import org.apache.spark.storage.StorageLevel
import repro.SparkSpec
import repro.data.MotivatingExample

/** Once-off per-table state: TBI, block sizes, value frequencies, LI. */
class TableContextSpec extends SparkSpec {

  private def ctx = TableContext("pubsCtx", MotivatingExample.publications(spark))

  test("requires an eid column") {
    import spark.implicits._
    intercept[IllegalArgumentException] {
      TableContext("bad", Seq((1, "x")).toDF("id", "v"))
    }
  }

  test("attrs exclude the entity id") {
    assert(ctx.attrs == Seq("title", "author", "venue", "year"))
  }

  test("size counts all entities") { assert(ctx.size == 8) }

  test("TBI contains the expected block for token 'edbt'") {
    val c = ctx
    val ids = c.tbi.where("token = 'edbt'").select("eid").collect().map(_.getLong(0)).toSet
    assert(ids == Set(1L, 6L, 8L))
  }

  test("block sizes match the TBI incidence") {
    val c = ctx
    val s = c.blockSizes.where("token = 'edbt'").collect()(0).getLong(1)
    assert(s == 3L)
  }

  test("tbiBlockCount equals the number of distinct tokens") {
    val c = ctx
    assert(c.tbiBlockCount == c.tbi.select("token").distinct().count())
  }

  test("valueFreq records repeated cell values, lowercased") {
    val f = ctx.valueFreq
    assert(f("edbt") == 3L)      // venue of P1, P6, P8
    assert(f("2008") == 2L)      // year of P1, P2
    assert(!f.contains("collective entity resolution")) // unique values omitted
  }

  test("unpersistAll releases every index, the refined TBIs included") {
    val c = ctx
    val indices =
      Seq(c.rows, c.tbi, c.blockSizes, c.retainedTbi(MbConfig.All), c.retainedTbi(MbConfig.BpEp))
    assert(indices.forall(_.storageLevel != StorageLevel.NONE))
    c.unpersistAll()
    assert(indices.forall(_.storageLevel == StorageLevel.NONE))
  }

  test("link index starts empty and resets") {
    val c = ctx
    c.li.addLink(1L, 2L); c.li.markResolved(Seq(1L))
    c.resetLinkIndex()
    assert(c.li.linkCount == 0 && c.li.resolvedCount == 0)
  }
}

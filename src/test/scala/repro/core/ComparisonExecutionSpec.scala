package repro.core

import org.scalacheck.Prop
import org.scalacheck.Prop.propBoolean
import repro.{CatalystReference, PropSupport, SparkSpec}

/** Comparison-Execution (paper §6.1.iv) over the table's driver-side
  * profiles.
  */
class ComparisonExecutionSpec extends SparkSpec with PropSupport {

  test("property: comparisons and links equal the RDD-join reference's under every MbConfig") {
    import spark.implicits._
    val sc    = spark.sparkContext
    var links = 0L
    // the tables are tiny: a few shuffle partitions keep each case fast
    val partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", 2)
    try checkProp(Prop.forAll(randomTable) { case (rows, ids) =>
      val ctx = TableContext("prop", rows.toDF("eid", "a", "b"))
      try Prop.all((for {
        mb        <- Seq(MbConfig.All, MbConfig.BpBf, MbConfig.BpEp, MbConfig.None)
        threshold <- Seq(0.5, 0.85)
      } yield {
        val index = ctx.blockIndex(mb).restrict(ids)
        val raw   = MetaBlocking.candidatePairs(sc, sc.broadcast(index))
        val pairs = if (mb.edgePruning) MetaBlocking.edgePruning(raw) else raw
        val (n, found)       = ComparisonExecution.execute(ctx, pairs, index.entities, threshold)
        val (refN, refFound) = CatalystReference.comparisons(ctx, pairs, index.entities, threshold)
        links += found.size
        (n == refN && found.size == refFound.size && found.toSet == refFound.toSet) :|
          s"${mb.label} θ=$threshold over ${rows.size} rows: $n vs $refN comparisons"
      }): _*)
      finally ctx.unpersistAll()
    }, minTests = 8)
    finally spark.conf.set("spark.sql.shuffle.partitions", partitions)
    assert(links > 0, "no case matched a pair")
  }
}

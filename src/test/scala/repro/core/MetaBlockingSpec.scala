package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.PropSupport
import org.scalacheck.{Gen, Prop}

/** Block Purging, Block Filtering and Edge Pruning (paper §6.1.iii). */
class MetaBlockingSpec extends SparkSpec with PropSupport {
  import MetaBlocking._

  private def entries(rows: (String, Long, Boolean)*): DataFrame = {
    import spark.implicits._
    rows.toSeq.toDF("token", "eid", "isQuery")
  }

  test("cardinality of a block") {
    assert(cardinality(1) == 0 && cardinality(2) == 1 && cardinality(5) == 10)
  }

  test("purgeThreshold keeps everything for a small uniform histogram") {
    val hist = Seq((3L, 10L)) // ten blocks of size 3
    assert(purgeThreshold(hist, nEntities = 30) >= cardinality(3))
  }
  test("purgeThreshold removes an oversized stopword-like block") {
    // many small discriminative blocks + one huge block over the budget
    val hist = Seq((2L, 50L), (3L, 20L), (500L, 1L))
    val t = purgeThreshold(hist, nEntities = 160)
    assert(t < cardinality(500) && t >= cardinality(3))
  }
  test("purgeThreshold ignores singleton blocks") {
    assert(purgeThreshold(Seq((1L, 1000L), (2L, 5L)), nEntities = 1000) >= cardinality(2))
  }
  test("purgeThreshold of empty histogram keeps everything") {
    assert(purgeThreshold(Nil, nEntities = 10) == Long.MaxValue)
  }
  test("property: the smallest cardinality level always survives purging") {
    val gen = Gen.listOfN(5, Gen.zip(Gen.choose(2L, 20L), Gen.choose(1L, 30L)))
    checkProp(Prop.forAll(gen) { h =>
      val t = purgeThreshold(h, nEntities = 1)
      t >= cardinality(h.map(_._1).min)
    }, minTests = 50)
  }
  test("property: retained comparisons respect the sf·|E| budget (beyond the first level)") {
    val gen = Gen.listOfN(6, Gen.zip(Gen.choose(2L, 50L), Gen.choose(1L, 10L)))
    checkProp(Prop.forAll(gen, Gen.choose(10L, 1000L)) { (h, n) =>
      val t = purgeThreshold(h, nEntities = n)
      val retained = h.filter(x => cardinality(x._1) <= t)
        .map(x => cardinality(x._1) * x._2).sum
      val firstLevel = h.map(x => cardinality(x._1)).filter(_ > 0).minOption.getOrElse(0L)
      retained <= (50.0 * n).toLong || t == firstLevel
    }, minTests = 50)
  }

  test("purge drops the oversized block from the entries") {
    val big   = (1L to 120L).map(i => ("common", i, true))
    val small = Seq(("rare1", 1L, true), ("rare1", 2L, false),
                    ("rare2", 3L, true), ("rare2", 4L, false))
    val e = entries((big ++ small): _*)
    val (kept, t) = purge(e, blockSizes(e))
    val tokens = kept.select("token").distinct().collect().map(_.getString(0)).toSet
    assert(tokens == Set("rare1", "rare2"))
    assert(t < cardinality(120))
  }
  test("purge keeps all blocks when sizes are homogeneous") {
    val e = entries(("a", 1L, true), ("a", 2L, true), ("b", 3L, true), ("b", 4L, true))
    val (kept, _) = purge(e, blockSizes(e))
    assert(kept.count() == 4)
  }

  test("filter retains each entity in its smallest blocks only") {
    // entity 1 is in a size-2 and a size-4 block; p=0.5 keeps only the smaller
    val e = entries(
      ("small", 1L, true), ("small", 2L, true),
      ("large", 1L, true), ("large", 3L, true), ("large", 4L, true), ("large", 5L, true))
    val kept = filter(e, blockSizes(e), p = 0.5)
    val e1 = kept.where("eid = 1").select("token").collect().map(_.getString(0)).toSet
    assert(e1 == Set("small"))
  }
  test("filter keeps at least one block per entity") {
    val e = entries(("only", 1L, true), ("only", 2L, true))
    assert(filter(e, blockSizes(e), p = 0.01).where("eid = 1").count() == 1)
  }
  test("filter with p=1 keeps everything") {
    val e = entries(("a", 1L, true), ("a", 2L, true), ("b", 1L, true), ("b", 3L, true))
    assert(filter(e, blockSizes(e), p = 1.0).count() == e.count())
  }

  test("candidatePairs emits each co-occurring pair once with its ARCS weight") {
    val e = entries(
      ("t1", 1L, true), ("t1", 2L, false),
      ("t2", 1L, true), ("t2", 2L, false),
      ("t3", 2L, false), ("t3", 3L, false))
    val pairs = candidatePairs(e).collect().map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    // two common blocks of cardinality 1 each → ARCS = 2.0;
    // (2,3) dropped: neither side is a query entity
    assert(pairs.keySet == Set((1L, 2L)))
    assert(math.abs(pairs((1L, 2L)) - 2.0) < 1e-9)
  }
  test("candidatePairs never pairs an entity with itself") {
    val e = entries(("t", 7L, true), ("t", 7L, true))
    assert(candidatePairs(e).where("aid = bid").count() == 0)
  }
  test("candidatePairs requires a query-side entity") {
    val e = entries(("t", 1L, false), ("t", 2L, false))
    assert(candidatePairs(e).count() == 0)
  }
  test("candidatePairs canonical order aid < bid") {
    val e = entries(("t", 9L, true), ("t", 3L, false))
    val r = candidatePairs(e).collect()(0)
    assert(r.getLong(0) == 3L && r.getLong(1) == 9L)
  }

  test("edgePruning keeps edges at or above the mean weight") {
    import spark.implicits._
    val pairs = Seq((1L, 2L, 0.9, true, false), (1L, 3L, 0.3, true, false), (2L, 3L, 0.3, false, true))
      .toDF("aid", "bid", "weight", "aq", "bq")
    val kept = MetaBlocking.edgePruning(pairs).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    // mean = 0.5 → only the 0.9 edge survives
    assert(kept == Set((1L, 2L)))
  }
  test("edgePruning caps the threshold at ARCS 1.0 (dedicated-block evidence survives)") {
    import spark.implicits._
    val pairs = Seq((1L, 2L, 8.0, true, true), (3L, 4L, 1.2, true, true), (5L, 6L, 0.2, true, true))
      .toDF("aid", "bid", "weight", "aq", "bq")
    val kept = MetaBlocking.edgePruning(pairs).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    // mean = 3.13 but the cap keeps every edge with weight ≥ 1.0
    assert(kept == Set((1L, 2L), (3L, 4L)))
  }
  test("edgePruning of an empty pair set is a no-op") {
    import spark.implicits._
    val pairs = Seq.empty[(Long, Long, Long, Boolean, Boolean)]
      .toDF("aid", "bid", "weight", "aq", "bq")
    assert(MetaBlocking.edgePruning(pairs).count() == 0)
  }
  test("edgePruning with uniform weights keeps everything") {
    import spark.implicits._
    val pairs = Seq((1L, 2L, 2L, true, true), (3L, 4L, 2L, true, true))
      .toDF("aid", "bid", "weight", "aq", "bq")
    assert(MetaBlocking.edgePruning(pairs).count() == 2)
  }

  /** The surviving pairs of the production path: the table's refined TBI
    * restricted to `ids` (Block-Join), candidate pairs, then Edge Pruning.
    */
  private def pairsOf(ctx: TableContext, ids: Set[Long], mb: MbConfig): Set[(Long, Long)] = {
    val sc    = spark.sparkContext
    val raw   = candidatePairs(sc, sc.broadcast(ctx.blockIndex(mb).restrict(ids)))
    val pairs = if (mb.edgePruning) edgePruning(raw) else raw
    pairs.map(e => (e.aid, e.bid)).collect().toSet
  }

  private def table(values: (Long, String)*): TableContext = {
    import spark.implicits._
    TableContext("mb", values.toSeq.toDF("eid", "v"))
  }

  test("run with MbConfig.None returns the raw candidate pairs") {
    val ctx = table(1L -> "t1", 2L -> "t1", 3L -> "t2", 4L -> "t2")
    assert(pairsOf(ctx, Set(1L, 3L), MbConfig.None) == Set((1L, 2L), (3L, 4L)))
    val cfg = DedupConfig(mb = MbConfig.None, useLinkIndex = false)
    assert(Deduplicate.run(ctx, Set(1L, 3L), cfg).stats.comparisons == 2)
  }
  test("run ALL is a subset of run None") {
    val ctx = table(1L -> "t1 t2", 2L -> "t1 t2", 3L -> "t2 t3", 4L -> "t3")
    val all  = pairsOf(ctx, Set(1L, 3L), MbConfig.All)
    val none = pairsOf(ctx, Set(1L, 3L), MbConfig.None)
    assert(all.nonEmpty && all.subsetOf(none))
  }
  test("MbConfig labels match the paper's configurations") {
    assert(MbConfig.All.label == "ALL")
    assert(MbConfig.BpBf.label == "BP+BF")
    assert(MbConfig.BpEp.label == "BP+EP")
  }
}

package perfbench

import org.apache.spark.sql.{functions => F}
import repro.core._

/** Kernel microbenchmarks on the driver thread, over the workload's own
  * inputs collected once. Run only in the traced run.
  */
object Micro {

  /** Units of work per second: `unit` returns the units it did; it runs
    * once to warm up, then repeatedly for at least `minMs`.
    */
  def rate(minMs: Long)(unit: => Long): Double = {
    unit
    var n  = 0L
    val t0 = System.nanoTime()
    var el = 0L
    while ({ n += unit; el = System.nanoTime() - t0; el < minMs * 1000000L }) ()
    n / (el / 1e9)
  }

  /** `profileSimilarity` on real candidate pairs, with the `valueFreq`
    * lookup Comparison-Execution uses.
    */
  def similarityPairsPerS(ctx: TableContext, pairs: Array[(Long, Long)]): Double = {
    val attrArr = F.array(ctx.attrs.map(a => F.col(a).cast("string")): _*)
    val profile = ctx.rows.select(F.col(Tokenizer.EidCol), attrArr).collect()
      .map(r => r.getLong(0) -> r.getSeq[String](1)).toMap
    val freq   = ctx.valueFreq
    val lookup = (v: String) => if (v == null) 1L else freq.getOrElse(v.toLowerCase, 1L)
    val sample = pairs.take(5000).map { case (a, b) => (profile(a), profile(b)) }
    if (sample.isEmpty) 0.0
    else rate(500) {
      sample.foreach { case (a, b) => Similarity.profileSimilarity(a, b, lookup) }
      sample.length
    }
  }

  /** `Tokenizer.tokensOf` over every cell of the table. */
  def tokenizerValuesPerS(ctx: TableContext): Double = {
    val cells = ctx.rows.select(ctx.attrs.map(a => F.col(a).cast("string")): _*).collect()
      .flatMap(r => (0 until r.length).map(r.getString))
    rate(300) {
      cells.foreach(Tokenizer.tokensOf)
      cells.length
    }
  }

  /** `Clusters.fromLinks` over each statement's DR and links. */
  def clusterLinksPerS(inputs: Seq[(Set[Long], Seq[(Long, Long)])]): Double = {
    val links = inputs.map(_._2.size.toLong).sum
    if (links == 0) 0.0
    else rate(200) {
      inputs.foreach { case (ids, ls) => Clusters.fromLinks(ids, ls) }
      links
    }
  }

  /** Microseconds per `MetaBlocking.purgeThreshold` call on the table's
    * block-size histogram.
    */
  def purgeThresholdUs(ctx: TableContext): Double = {
    val hist = ctx.blockSizes.groupBy("bsize").count().collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toSeq
    val n = ctx.size
    1e6 / rate(200) {
      MetaBlocking.purgeThreshold(hist, MbConfig.DefaultPurgeSf, n)
      1L
    }
  }
}

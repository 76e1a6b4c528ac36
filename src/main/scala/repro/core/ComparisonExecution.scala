package repro.core

import java.util.Locale

import org.apache.spark.rdd.RDD

import scala.collection.mutable

/** Comparison-Execution (paper §6.1.iv): run the resolution function on
  * every candidate pair that survived meta-blocking and keep pairs whose
  * schema-agnostic profile similarity reaches the match threshold.
  */
object ComparisonExecution {

  /** Execute the comparisons in `pairs` in one Spark action: the profiles
    * of `entities` ([[TableContext.profiles]]) reach the tasks as a
    * broadcast, and each pair is compared in its own partition. Returns the
    * number of executed comparisons (the paper's `Comp.` measure, one per
    * pair) and the matched `(aid, bid)` links, aid < bid; only the links
    * reach the driver.
    *
    * @param entities  the entities `pairs` may name (the block collection's)
    * @param threshold profile-similarity match threshold θ
    */
  def execute(ctx: TableContext, pairs: RDD[Edge], entities: Set[Long], threshold: Double)
      : (Long, Seq[(Long, Long)]) = {
    val sc    = ctx.spark.sparkContext
    val store = ctx.profiles
    // the resolution function's frequency weights, keyed by lowercased value
    val freq     = sc.broadcast(ctx.valueFreq)
    val profiles = sc.broadcast(mutable.LongMap.from(entities.iterator.map(e => e -> store(e))))
    try {
      val perPartition = pairs.mapPartitions { it =>
        val (f, p) = (freq.value, profiles.value)
        val lookup = (v: String) => if (v == null) 1L else f.getOrElse(v.toLowerCase(Locale.ROOT), 1L)
        var n     = 0L
        val links = mutable.ArrayBuffer.empty[(Long, Long)]
        for (e <- it) {
          n += 1
          if (Similarity.profileSimilarity(p(e.aid), p(e.bid), lookup) >= threshold) links += ((e.aid, e.bid))
        }
        Iterator((n, links.toSeq))
      }.collect()
      (perPartition.map(_._1).sum, perPartition.flatMap(_._2).toSeq)
    } finally { freq.destroy(); profiles.destroy() }
  }
}

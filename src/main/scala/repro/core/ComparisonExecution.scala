package repro.core

import java.util.Locale

import org.apache.spark.rdd.RDD

import scala.collection.mutable

/** Comparison-Execution (paper §6.1.iv): run the resolution function on
  * every candidate pair that survived meta-blocking and keep pairs whose
  * schema-agnostic profile similarity reaches the match threshold.
  */
object ComparisonExecution {

  /** Execute the comparisons in `pairs` in one Spark action: each pair is
    * joined with the profiles of both its entities, drawn from the rows of
    * `entities`, and compared. Returns the number of executed comparisons
    * (the paper's `Comp.` measure, one per pair) and the matched
    * `(aid, bid)` links, aid < bid; only the links reach the driver.
    *
    * @param entities  the entities `pairs` may name (the block collection's)
    * @param threshold profile-similarity match threshold θ
    */
  def execute(ctx: TableContext, pairs: RDD[Edge], entities: Set[Long], threshold: Double)
      : (Long, Seq[(Long, Long)]) = {
    // the resolution function's frequency weights, keyed by lowercased value
    val freq     = ctx.spark.sparkContext.broadcast(ctx.valueFreq)
    val profiles = TableContext.profiles(ctx.rowsOf(entities), ctx.attrs)
    try {
      val perPartition = pairs.map(e => (e.aid, e.bid)).join(profiles)
        .map { case (a, (b, pa)) => (b, (a, pa)) }.join(profiles)
        .mapPartitions { it =>
          val f = freq.value
          val lookup = (v: String) => if (v == null) 1L else f.getOrElse(v.toLowerCase(Locale.ROOT), 1L)
          var n     = 0L
          val links = mutable.ArrayBuffer.empty[(Long, Long)]
          for ((b, ((a, pa), pb)) <- it) {
            n += 1
            if (Similarity.profileSimilarity(pa, pb, lookup) >= threshold) links += ((a, b))
          }
          Iterator((n, links.toSeq))
        }
        .collect()
      (perPartition.map(_._1).sum, perPartition.flatMap(_._2).toSeq)
    } finally freq.destroy()
  }
}

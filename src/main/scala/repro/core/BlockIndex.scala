package repro.core

import org.apache.spark.sql.DataFrame

import scala.collection.mutable

/** A candidate comparison: an edge of the blocking graph, `aid < bid`,
  * weighted by the ARCS scheme [25] — the sum of reciprocal block
  * cardinalities 1/‖b‖ over the pair's common blocks.
  */
final case class Edge(aid: Long, bid: Long, weight: Double)

/** A block collection held on the driver, as the entity-based parallel
  * meta-blocking of Efthymiou et al. (Inf. Syst. 2017) broadcasts it: the
  * members of every block, and the blocks of every query entity.
  *
  * @param members  the entity ids of each block, one entry per block row
  * @param blocksOf the blocks of each query entity, by index into `members`
  */
final class BlockIndex private (
    members: Array[Array[Long]],
    blocksOf: mutable.LongMap[Array[Int]],
) extends Serializable {

  /** Number of distinct blocks (blocking keys). */
  def blocks: Long = members.length.toLong

  /** Every entity of the collection. */
  def entities: Set[Long] = members.iterator.flatMap(_.iterator).toSet

  /** The query entities: each computes the edges it owns. */
  def owners: Array[Long] = blocksOf.keys.toArray.sorted

  /** The edges owned by query entity `e`: one per co-occurring entity,
    * except other query entities with a smaller id (which own that edge),
    * so every query-touching pair is emitted once. The weight is summed
    * over `e`'s blocks; blocks reduced to one entity carry no pairs.
    */
  def edgesOf(e: Long): Iterator[Edge] = {
    val weight = mutable.LongMap.empty[Double]
    for (b <- blocksOf.getOrElse(e, Array.emptyIntArray); m = members(b) if m.length >= 2) {
      val w = 1.0 / MetaBlocking.cardinality(m.length)
      for (x <- m if x != e && (x > e || !blocksOf.contains(x)))
        weight(x) = weight.getOrElse(x, 0.0) + w
    }
    weight.iterator.map { case (x, w) => if (e < x) Edge(e, x, w) else Edge(x, e, w) }
  }
}

object BlockIndex {

  /** Collect a `(token, eid, isQuery)` block collection into an index:
    * one Spark action.
    */
  def apply(entries: DataFrame): BlockIndex = {
    val blockOf  = mutable.HashMap.empty[String, Int]
    val members  = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Long]]
    val blocksOf = mutable.LongMap.empty[mutable.ArrayBuffer[Int]]
    for (r <- entries.select("token", "eid", "isQuery").collect()) {
      val b = blockOf.getOrElseUpdate(r.getString(0), {
        members += mutable.ArrayBuffer.empty[Long]; members.size - 1
      })
      members(b) += r.getLong(1)
      if (r.getBoolean(2)) blocksOf.getOrElseUpdate(r.getLong(1), mutable.ArrayBuffer.empty[Int]) += b
    }
    new BlockIndex(members.map(_.toArray).toArray, blocksOf.mapValuesNow(_.toArray))
  }
}

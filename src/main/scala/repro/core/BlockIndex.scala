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
  * A table's refined TBI is one such index with every entity a query
  * entity ([[TableContext.blockIndex]]); a statement's EQBI is that index
  * restricted to its query entities ([[restrict]]).
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

  /** Block-Join (paper §6.1.ii) on the driver: the blocks that hold any
    * of `ids`, with `ids` as the query entities — the EQBI of a query
    * whose QBI keys are `ids`' blocking keys. A block none of `ids` was
    * retained in carries no query-touching pair, so it is left out. The
    * block member arrays are shared, not copied.
    */
  def restrict(ids: Iterable[Long]): BlockIndex = {
    val renumber = Array.fill(members.length)(-1)
    val kept     = mutable.ArrayBuffer.empty[Array[Long]]
    val own      = mutable.LongMap.empty[Array[Int]]
    for (e <- ids; bs <- blocksOf.get(e)) own(e) = bs.map { b =>
      if (renumber(b) < 0) { renumber(b) = kept.size; kept += members(b) }
      renumber(b)
    }
    new BlockIndex(kept.toArray, own)
  }

  /** The planner's comparison estimate (paper §7.2.1.i) of this block
    * collection: Σ_b q_b·(|b| − (q_b+1)/2), with q_b the query entities
    * of block b — every pair of b that touches the query, counted per
    * block, before Edge Pruning.
    */
  def estimatedComparisons: Long = {
    val q = new Array[Long](members.length)
    blocksOf.valuesIterator.foreach(_.foreach(b => q(b) += 1))
    q.indices.iterator.map(b => q(b) * members(b).length - q(b) * (q(b) + 1) / 2).sum
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

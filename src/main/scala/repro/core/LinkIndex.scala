package repro.core

import scala.collection.mutable

/** Link Index LI_E (paper §3, §6.1): an in-memory index mapping each
  * entity to its discovered duplicates, amended with the links each query
  * resolves. `resolved` records the entities whose link-sets have been
  * fully computed, so later queries skip their comparisons entirely —
  * this is what makes QueryER progressively faster (paper Fig. 11).
  */
final class LinkIndex {

  private val adj      = mutable.HashMap.empty[Long, mutable.HashSet[Long]]
  private val resolved = mutable.HashSet.empty[Long]

  def isResolved(id: Long): Boolean = resolved.contains(id)
  def resolvedCount: Int            = resolved.size
  def linkCount: Long               = adj.valuesIterator.map(_.size.toLong).sum / 2

  def markResolved(ids: Iterable[Long]): Unit = resolved ++= ids

  def addLink(a: Long, b: Long): Unit = if (a != b) {
    adj.getOrElseUpdate(a, mutable.HashSet.empty) += b
    adj.getOrElseUpdate(b, mutable.HashSet.empty) += a
  }

  def addLinks(pairs: Iterable[(Long, Long)]): Unit =
    pairs.foreach { case (a, b) => addLink(a, b) }

  /** Transitive closure of the link-set of `ids` (BFS; clusters are tiny). */
  def closure(ids: Iterable[Long]): Set[Long] = {
    val seen  = mutable.HashSet.empty[Long]
    val queue = mutable.Queue.empty[Long]
    ids.foreach { id => if (seen.add(id)) queue += id }
    while (queue.nonEmpty) {
      val cur = queue.dequeue()
      adj.get(cur).foreach(_.foreach { nxt => if (seen.add(nxt)) queue += nxt })
    }
    seen.toSet
  }

  /** Duplicate clusters of `ids`: every member of each seed's connected
    * component mapped to the component's smallest id (its representative).
    */
  def clusters(ids: Iterable[Long]): Map[Long, Long] =
    ids.foldLeft(Map.empty[Long, Long]) { (m, id) =>
      if (m.contains(id)) m
      else {
        val component = closure(Seq(id))
        val rep       = component.min
        m ++ component.iterator.map(_ -> rep)
      }
    }

  /** All links among `ids` (both ends inside), canonically ordered. */
  def linksAmong(ids: Set[Long]): Seq[(Long, Long)] =
    ids.iterator.flatMap { a =>
      adj.getOrElse(a, mutable.HashSet.empty).iterator
        .filter(b => a < b && ids.contains(b))
        .map(b => (a, b))
    }.toSeq

  def clear(): Unit = { adj.clear(); resolved.clear() }
}

package repro.core

/** Connected components over link-sets (duplicate clusters).
  *
  * Link-sets are orders of magnitude smaller than the data (paper Table 7:
  * |L_E| ≤ 32% of |E|, clusters ≤ 4 entities), so the components are
  * labelled on the driver by the Link Index — the paper likewise keeps LI
  * in memory.
  */
object Clusters {

  /** Map every id to its cluster representative (min id of the component).
    * Ids without links map to themselves.
    */
  def fromLinks(ids: Iterable[Long], links: Iterable[(Long, Long)]): Map[Long, Long] = {
    val li = new LinkIndex
    li.addLinks(links)
    val keep = ids.toSet
    li.clusters(ids).filter { case (id, _) => keep(id) }
  }
}

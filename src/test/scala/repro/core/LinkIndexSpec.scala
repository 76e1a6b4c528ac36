package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The progressive Link Index LI_E (paper §3/§6.1). */
class LinkIndexSpec extends AnyFunSuite {

  test("starts empty") {
    val li = new LinkIndex
    assert(li.resolvedCount == 0 && li.linkCount == 0 && !li.isResolved(1L))
  }
  test("markResolved registers entities") {
    val li = new LinkIndex
    li.markResolved(Seq(1L, 2L))
    assert(li.isResolved(1L) && li.isResolved(2L) && !li.isResolved(3L))
  }
  test("addLink is symmetric") {
    val li = new LinkIndex
    li.addLink(2L, 1L)
    assert(li.closure(Seq(1L)) == Set(1L, 2L) && li.closure(Seq(2L)) == Set(1L, 2L))
    assert(li.linksAmong(Set(1L, 2L)) == Seq((1L, 2L)))
  }
  test("self links are ignored") {
    val li = new LinkIndex
    li.addLink(3L, 3L)
    assert(li.closure(Seq(3L)) == Set(3L) && li.linksAmong(Set(3L)).isEmpty && li.linkCount == 0)
  }
  test("linkCount counts undirected links once") {
    val li = new LinkIndex
    li.addLinks(Seq((1L, 2L), (2L, 1L), (2L, 3L)))
    assert(li.linkCount == 2)
  }
  test("closure follows transitive links") {
    val li = new LinkIndex
    li.addLinks(Seq((1L, 2L), (2L, 3L), (7L, 8L)))
    assert(li.closure(Seq(1L)) == Set(1L, 2L, 3L))
  }
  test("closure of multiple seeds unions their components") {
    val li = new LinkIndex
    li.addLinks(Seq((1L, 2L), (7L, 8L)))
    assert(li.closure(Seq(1L, 7L)) == Set(1L, 2L, 7L, 8L))
  }
  test("closure of an unlinked id is itself") {
    val li = new LinkIndex
    assert(li.closure(Seq(42L)) == Set(42L))
  }
  test("clusters label each seed's whole component with its smallest id") {
    val li = new LinkIndex
    li.addLinks(Seq((3L, 2L), (2L, 5L), (7L, 8L), (9L, 10L)))
    assert(li.clusters(Seq(5L, 8L, 42L)) ==
      Map(2L -> 2L, 3L -> 2L, 5L -> 2L, 7L -> 7L, 8L -> 7L, 42L -> 42L))
  }
  test("linksAmong restricts both endpoints and canonicalises order") {
    val li = new LinkIndex
    li.addLinks(Seq((2L, 1L), (2L, 9L)))
    assert(li.linksAmong(Set(1L, 2L)).toSet == Set((1L, 2L)))
    assert(li.linksAmong(Set(1L, 2L, 9L)).toSet == Set((1L, 2L), (2L, 9L)))
  }
  test("clear resets all state") {
    val li = new LinkIndex
    li.addLink(1L, 2L); li.markResolved(Seq(1L))
    li.clear()
    assert(li.linkCount == 0 && li.resolvedCount == 0)
  }
  test("an unknown id has no links") {
    val li = new LinkIndex
    li.addLink(1L, 2L)
    assert(li.linksAmong(Set(1L, 99L)).isEmpty && li.clusters(Seq(99L)) == Map(99L -> 99L))
  }
}

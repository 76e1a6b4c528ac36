package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Connected components over link-sets. */
class ClustersSpec extends AnyFunSuite with PropSupport {

  test("singleton ids map to themselves") {
    val m = Clusters.fromLinks(Seq(1L, 2L, 3L), Nil)
    assert(m == Map(1L -> 1L, 2L -> 2L, 3L -> 3L))
  }
  test("a link merges two ids under the smaller representative") {
    val m = Clusters.fromLinks(Seq(1L, 2L), Seq((2L, 1L)))
    assert(m(1L) == 1L && m(2L) == 1L)
  }
  test("transitive links form one cluster") {
    val m = Clusters.fromLinks(Seq(1L, 2L, 3L, 4L), Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    assert(m.values.toSet == Set(1L))
  }
  test("disjoint components stay separate") {
    val m = Clusters.fromLinks(Seq(1L, 2L, 10L, 11L), Seq((1L, 2L), (10L, 11L)))
    assert(m(1L) == 1L && m(2L) == 1L && m(10L) == 10L && m(11L) == 10L)
  }
  test("self links are harmless") {
    val m = Clusters.fromLinks(Seq(5L), Seq((5L, 5L)))
    assert(m(5L) == 5L)
  }
  test("representative is always the minimum member") {
    val m = Clusters.fromLinks(Seq(7L, 3L, 9L), Seq((9L, 7L), (7L, 3L)))
    assert(m.values.toSet == Set(3L))
  }
  test("property: cluster assignment is a partition refinement of the links") {
    val gen = for {
      n     <- Gen.choose(2, 30)
      links <- Gen.listOfN(n, Gen.zip(Gen.choose(0L, 20L), Gen.choose(0L, 20L)))
    } yield links
    checkProp(Prop.forAll(gen) { links =>
      val ids = (0L to 20L).toSeq
      val m   = Clusters.fromLinks(ids, links)
      links.forall { case (a, b) => m(a) == m(b) } &&
        ids.forall(id => m(m(id)) == m(id)) // representatives are fixpoints
    }, minTests = 50)
  }
  test("property: order of links does not matter") {
    val gen = Gen.listOfN(10, Gen.zip(Gen.choose(0L, 15L), Gen.choose(0L, 15L)))
    checkProp(Prop.forAll(gen) { links =>
      val ids = (0L to 15L).toSeq
      Clusters.fromLinks(ids, links) == Clusters.fromLinks(ids, links.reverse)
    }, minTests = 50)
  }
}

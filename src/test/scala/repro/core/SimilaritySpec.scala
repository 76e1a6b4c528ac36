package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Jaro / Jaro-Winkler reference values and algebraic properties. */
class SimilaritySpec extends AnyFunSuite with PropSupport {
  import Similarity._

  private def approx(a: Double, b: Double, eps: Double = 1e-3): Boolean = math.abs(a - b) < eps

  test("jaro of identical strings is 1") { assert(jaro("martha", "martha") == 1.0) }
  test("jaro of empty strings is 1") { assert(jaro("", "") == 1.0) }
  test("jaro of empty vs non-empty is 0") { assert(jaro("", "abc") == 0.0) }
  test("jaro with null is 0") { assert(jaro(null, "abc") == 0.0 && jaro("abc", null) == 0.0) }
  test("jaro martha/marhta reference value") { assert(approx(jaro("martha", "marhta"), 0.9444)) }
  test("jaro dixon/dicksonx reference value") { assert(approx(jaro("dixon", "dicksonx"), 0.7667)) }
  test("jaro jellyfish/smellyfish reference value") { assert(approx(jaro("jellyfish", "smellyfish"), 0.8963)) }
  test("jaro of disjoint strings is 0") { assert(jaro("abc", "xyz") == 0.0) }

  test("jaro-winkler martha/marhta reference value") { assert(approx(jaroWinkler("martha", "marhta"), 0.9611)) }
  test("jaro-winkler dixon/dicksonx reference value") { assert(approx(jaroWinkler("dixon", "dicksonx"), 0.8133)) }
  test("jaro-winkler equals jaro below the 0.7 boost threshold") {
    val j = jaro("abcdef", "fedcba")
    assert(j < 0.7 && jaroWinkler("abcdef", "fedcba") == j)
  }
  test("jaro-winkler identical is 1") { assert(jaroWinkler("edbt", "edbt") == 1.0) }
  test("jaro-winkler prefix bonus caps at 4 characters") {
    // long shared prefix should not push past 1.0
    assert(jaroWinkler("abcdefgh", "abcdefgx") <= 1.0)
  }

  private val word = Gen.nonEmptyListOf(Gen.alphaLowerChar).map(_.mkString).suchThat(_.nonEmpty)

  test("property: jaro is symmetric") {
    checkProp(Prop.forAll(word, word) { (a, b) => approx(jaro(a, b), jaro(b, a), 1e-12) })
  }
  test("property: jaro in [0,1]") {
    checkProp(Prop.forAll(word, word) { (a, b) => val j = jaro(a, b); j >= 0.0 && j <= 1.0 })
  }
  test("property: jaro-winkler in [0,1] and >= jaro") {
    checkProp(Prop.forAll(word, word) { (a, b) =>
      val j = jaro(a, b); val jw = jaroWinkler(a, b)
      jw >= j - 1e-12 && jw <= 1.0
    })
  }
  test("property: identity gives 1") {
    checkProp(Prop.forAll(word) { a => jaroWinkler(a, a) == 1.0 })
  }

  test("profileSimilarity averages only co-present attributes") {
    val s = profileSimilarity(Seq("edbt", null, "2008"), Seq("edbt", "x", "2008"), _ => 1L)
    assert(s == 1.0)
  }
  test("profileSimilarity with no co-present attribute is 0") {
    assert(profileSimilarity(Seq(null, "a"), Seq("b", null), _ => 1L) == 0.0)
  }
  test("profileSimilarity is case-insensitive") {
    assert(profileSimilarity(Seq("EDBT"), Seq("edbt"), _ => 1L) == 1.0)
  }
  test("profileSimilarity rejects arity mismatch") {
    intercept[IllegalArgumentException](profileSimilarity(Seq("a"), Seq("a", "b"), _ => 1L))
  }
  test("profileSimilarity of typo'd profile stays above the match threshold") {
    val a = Seq("james", "smith", "12 main street", "springfield", "1975")
    val b = Seq("jmaes", "smith", "12 main street", "springfield", null)
    assert(profileSimilarity(a, b, _ => 1L) > 0.9)
  }
  test("profileSimilarity of unrelated profiles stays below the match threshold") {
    val a = Seq("james", "smith", "12 main street", "springfield", "1975")
    val b = Seq("maria", "garcia", "9 oak avenue", "riverton", "1991")
    assert(profileSimilarity(a, b, _ => 1L) < 0.85)
  }
}

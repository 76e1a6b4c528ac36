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

  /** `profileSimilarity` of generated DSD and OAGP pairs (4 duplicates, 6
    * non-duplicates; OAGP cut to its first six attributes), each table with
    * its value frequencies, pinned bit for bit: reworking how the kernel
    * lowercases or tokenises must not move a score.
    */
  private val pinned: Seq[(Map[String, Long], Seq[(Seq[String], Seq[String], Double)])] = Seq(
    // dsd
    (Map(
      "international conference on data engineering" -> 14L, "1988" -> 10L,
      "international conference on entity resolution" -> 14L, "2001" -> 6L, "1972" -> 3L,
      "international conference on human computation" -> 8L, "1984" -> 7L, "1." -> 2L,
      "international conference on embedded systems" -> 12L, "1995" -> 10L,
      "international conference on artificial intelligence" -> 9L,
      "international conference on web search and data mining" -> 7L, "1985" -> 9L,
      "international conference on operating systems" -> 10L, "1998" -> 8L,
      "international conference on big data analytics" -> 8L),
     Seq(
      (Seq("grerdet flinkounschiol priomsteal hurkquait", "benjamin ramos, gregory anderson", "international conference on data engineering", "1988"),
       Seq(null, "benjamin ramos gregory anderosn", "international conference on kdata engineering", "1988"),
       0.9946405657636778),
      (Seq("sioxviotzond gastcion dourkkarcru kistgrox", "joseph baker, stephanie wright", "international conference on entity resolution", "2001"),
       Seq("sioxviotzond gastcion dourkkarcru", "josepw baker, stephanie wright", "international conference on antit resolution", "2001z"),
       0.9699324305441479),
      (Seq("basdiom weatzeand kairmaxthiol zeandtraixflas", "donna sanchez, edward james", "international conference on entity resolution", "1972"),
       Seq("basdiom w. kairmaxthiol zeandtraixflas", "dona sanchez, edwar djames", "idnternational conference entity resolution", "192"),
       0.9718281687729744),
      (Seq("kousprurliot caixstiox girknaicret queastzout", "kimberly kim, mark brooks", "international conference on human computation", "1984"),
       Seq("kousprurliot caixstiox girknaicret queasvzout", "kimberly kim, m. burooks", "international conference oxn human computation", "1."),
       0.9736636987297058),
      (Seq("sioxviotzond gastcion dourkkarcru kistgrox", "joseph baker, stephanie wright", "international conference on entity resolution", "2001"),
       Seq("kolprourkvel dosvondprand dainleam quiostdrind", "rachel brooks, christine rogers", "international conference on embedded systems", "1995"),
       0.5965596463939699),
      (Seq("drastrem breahin turcrurpist thencrurk", "eric vasquez, jack rivera", "international conference on artificial intelligence", "1984"),
       Seq("maxbaslairk rioxdroust quainpriostlaix curkstaisttraist", "steven evans, christopher jung", "international conference on web search and data mining", "1985"),
       0.6608148363234196),
      (Seq("quainpriostlaix broungrilschean breazam dorkstounddroux", "karen henderson, nicole flores", "international conference on operating systems", "1998"),
       Seq("poustnam traxschout treamtor floxsoundmol", "kevin hill, carol collins", "international conference on big data analytics", "1984"),
       0.696336526012053))),
    // oagp
    (Map(
      "ketpoulfiox naitpriorstel primirk dreveslux bittreaxhix" -> 3L,
      "patricia alvarez, zachary scholz" -> 3L, "workshop on human computation" -> 14L,
      "2001" -> 6L, "now publishers" -> 40L, "9" -> 59L,
      "wirkrork crummear zaxgerk priris nibrand" -> 3L,
      "mary garcia, virginia richardson" -> 3L, "workshop on data integration" -> 14L,
      "1945" -> 8L, "wiley" -> 28L, "19" -> 8L,
      "druttral bonlafu bandtron sitai realdom" -> 3L, "anna diaz, christine davis" -> 3L,
      "workshop on network security" -> 14L, "1934" -> 11L, "oxford university press" -> 33L,
      "22" -> 16L, "deatvamgil quabiox houstbrorkfleark hotdran crairkfaixgiost" -> 3L,
      "patrick lee, adam garcia" -> 3L, "workshop on entity resolution" -> 14L, "1935" -> 7L,
      "mit press" -> 36L, "7" -> 34L, "workshop on cloud computing" -> 9L, "1998" -> 5L,
      "27" -> 8L, "38" -> 10L),
     Seq(
      (Seq("ketpoulfiox naitpriorstel primirk dreveslux bittreaxhix", "patricia alvarez, zachary scholz", "workshop on human computation", "2001", "now publishers", "9"),
       Seq("wirkrork crummear zaxgerk priris nibrand", "mary garcia, virginia richardson", "workshop on data integration", "1945", "wiley", "19"),
       0.4866344738364005),
      (Seq("druttral bonlafu bandtron sitai realdom", "anna diaz, christine davis", "workshop on network security", "1934", "oxford university press", "22"),
       Seq("deatvamgil quabiox houstbrorkfleark hotdran crairkfaixgiost", "patrick lee, adam garcia", "workshop on entity resolution", "1935", "mit press", "7"),
       0.6318114761091136),
      (Seq("lixkaim wehoushoul cairknast queaxprirk zasdar", "mark nguyen, michelle meier", "workshop on cloud computing", "1998", "mit press", "27"),
       Seq("tondvistgiot caistthail flandmu louxlendciox drenrourknark", "kyle brown, jerry morales", "amlca", "1934", "wiley", "38"),
       0.5242740204603245))))

  test("profileSimilarity reproduces its pinned values exactly") {
    for ((freqs, pairs) <- pinned; (a, b, expected) <- pairs) {
      val freq = (v: String) => if (v == null) 1L else freqs.getOrElse(v.toLowerCase, 1L)
      assert(profileSimilarity(a, b, freq) == expected, s"$a vs $b")
    }
  }
}

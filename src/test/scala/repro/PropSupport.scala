package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.Assertions

/** Minimal scalacheck bridge (the scalatestplus adapter is not available
  * offline): run a property with the default parameters and fail the
  * surrounding ScalaTest test if it does not pass.
  */
trait PropSupport extends Assertions {
  def checkProp(p: Prop, minTests: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), p)
    assert(res.passed, s"property failed: ${res.status}")
  }

  /** A random two-attribute table: a few common tokens, which Block
    * Purging and Block Filtering act on, over a tail of rarer ones; some
    * values null. With a random query set.
    */
  val randomTable: Gen[(Seq[(Long, String, String)], Set[Long])] = {
    val words = Vector("aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj", "kk", "ll")
    val value = for {
      common <- Gen.listOfN(3, Gen.prob(0.85))
      rare   <- Gen.listOfN(words.size - 3, Gen.prob(0.12))
      isNull <- Gen.prob(0.1)
    } yield Option.unless(isNull)(words.zip(common ++ rare).collect { case (w, true) => w }.mkString(" "))
    for {
      n     <- Gen.choose(8, 60)
      rows  <- Gen.listOfN(n, Gen.zip(value, value))
      query <- Gen.listOfN(n, Gen.prob(0.3))
    } yield (rows.zipWithIndex.map { case ((a, b), i) => (i.toLong, a.orNull, b.orNull) },
      query.zipWithIndex.collect { case (true, i) => i.toLong }.toSet)
  }
}

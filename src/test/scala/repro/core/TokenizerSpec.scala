package repro.core

import repro.SparkSpec

/** Token Blocking key extraction (paper §6.1.i). */
class TokenizerSpec extends SparkSpec {
  import Tokenizer._

  test("tokensOf lowercases and splits on non-alphanumerics") {
    assert(tokensOf("Entity-Resolution on Big Data") == Seq("entity", "resolution", "big", "data"))
  }
  test("tokensOf drops single characters") {
    assert(tokensOf("E.R on Big Data") == Seq("big", "data"))
  }
  test("tokensOf drops stopwords") {
    assert(!tokensOf("the International Conference on Extending Database Technology")
      .exists(Set("the", "on")))
  }
  test("tokensOf of null is empty") { assert(tokensOf(null).isEmpty) }
  test("tokensOf of empty string is empty") { assert(tokensOf("").isEmpty) }
  test("tokensOf deduplicates tokens within a value") {
    assert(tokensOf("data data data") == Seq("data"))
  }
  test("tokensOf keeps digits") { assert(tokensOf("EDBT 2008") == Seq("edbt", "2008")) }
  test("tokensOf lowercases the same under any default locale") {
    val default = java.util.Locale.getDefault
    java.util.Locale.setDefault(new java.util.Locale("tr"))
    try assert(tokensOf("ICDE Conference") == Seq("icde", "conference"))
    finally java.util.Locale.setDefault(default)
  }
  test("tokensOf is deterministic") {
    val s = "Collective Entity Resolution"
    assert(tokensOf(s) == tokensOf(s))
  }

  private def entityDf = {
    import spark.implicits._
    Seq(
      (1L, "Collective Entity Resolution", "EDBT"),
      (2L, "Collective E.R.", null.asInstanceOf[String]),
    ).toDF("eid", "title", "venue")
  }

  test("tokenize explodes all attributes of all entities") {
    val t = Tokenizer.tokenize(entityDf).collect().map(r => (r.getLong(0), r.getString(1))).toSet
    assert(t == Set(
      (1L, "collective"), (1L, "entity"), (1L, "resolution"), (1L, "edbt"),
      (2L, "collective")))
  }
  test("tokenize emits one row per (entity, token) even across attributes") {
    import spark.implicits._
    val df = Seq((1L, "edbt", "edbt")).toDF("eid", "a", "b")
    assert(Tokenizer.tokenize(df).count() == 1L)
  }
  test("tokenize requires at least one attribute") {
    import spark.implicits._
    intercept[IllegalArgumentException](Tokenizer.tokenize(Seq(1L).toDF("eid")))
  }
  test("attrCols excludes the entity id") {
    assert(Tokenizer.attrCols(entityDf) == Seq("title", "venue"))
  }
  test("blocking function is deterministic across invocations (TBI ≡ QBI keys)") {
    val a = Tokenizer.tokenize(entityDf).collect().toSet
    val b = Tokenizer.tokenize(entityDf).collect().toSet
    assert(a == b)
  }
}

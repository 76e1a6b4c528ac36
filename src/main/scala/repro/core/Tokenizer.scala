package repro.core

import java.util.Locale
import java.util.regex.Pattern

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Schema-agnostic Token Blocking key extraction (paper §6.1.i, [23]).
  *
  * Every token of every value of every attribute becomes a blocking key:
  * values are lowercased, split on non-alphanumeric runs, and tokens
  * shorter than 2 characters or in a tiny stopword list are dropped
  * (discriminativeness; oversized stopword blocks would be purged anyway,
  * dropping them here keeps the TBI small, as the paper's |TBI| sizes
  * imply).
  */
object Tokenizer {

  /** Stopwords excluded from blocking keys — function words only. */
  val Stopwords: Set[String] =
    Set("the", "and", "for", "with", "from", "that", "this", "are", "was", "its", "of", "on", "in")

  /** Runs of characters that are neither letters nor digits: what splits
    * a value into tokens (compiled once; `String.split` compiles per call).
    */
  private[core] val Separators: Pattern = Pattern.compile("[^\\p{L}\\p{N}]+")

  /** Tokens of a single value; distinct, order-stable. Lowercased in the
    * root locale, so blocking keys do not depend on the JVM's default one
    * (under a Turkish locale "ICDE" would lowercase to "ıcde").
    */
  def tokensOf(value: String): Seq[String] = {
    if (value == null) return Nil
    val out = scala.collection.mutable.LinkedHashSet.empty[String]
    for (t <- Separators.split(value.toLowerCase(Locale.ROOT)))
      if (t.length >= 2 && !Stopwords.contains(t)) out += t
    out.toSeq
  }

  private val tokensUdf = udf((s: String) => tokensOf(s))

  /** Entity column name used across the framework. */
  val EidCol = "eid"

  /** Attribute columns of an entity DataFrame = everything except the id. */
  def attrCols(df: DataFrame): Seq[String] = df.columns.toSeq.filterNot(_ == EidCol)

  /** `(eid, token)` pairs — one row per distinct (entity, blocking key).
    * This is the Table Block Index relation in entity-major form.
    */
  def tokenize(df: DataFrame): DataFrame = {
    val attrs = attrCols(df)
    require(attrs.nonEmpty, "entity DataFrame needs at least one attribute column")
    val valueArr: Column = array(attrs.map(a => col(a).cast("string")): _*)
    df.select(col(EidCol), explode(valueArr).as("v"))
      .select(col(EidCol), explode(tokensUdf(col("v"))).as("token"))
      .distinct()
  }
}

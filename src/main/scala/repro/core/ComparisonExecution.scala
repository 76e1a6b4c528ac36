package repro.core

import org.apache.spark.sql.{DataFrame, Row, functions => F}

/** Comparison-Execution (paper §6.1.iv): run the resolution function on
  * every candidate pair that survived meta-blocking and keep pairs whose
  * schema-agnostic profile similarity reaches the match threshold.
  */
object ComparisonExecution {

  /** Execute the comparisons in `pairs` against the entity rows of `ctx`
    * in one Spark action: the number of executed comparisons (the paper's
    * `Comp.` measure, one per pair) and the matched `(aid, bid)` links,
    * aid < bid. Only the links reach the driver.
    *
    * @param pairs     `(aid, bid, ...)` candidate pairs (canonical order)
    * @param threshold profile-similarity match threshold θ
    */
  def execute(ctx: TableContext, pairs: DataFrame, threshold: Double): (Long, Seq[(Long, Long)]) = {
    val freq = ctx.valueFreq // captured in the UDF closure; values are lowercased
    val simUdf = F.udf((a: Seq[String], b: Seq[String]) =>
      Similarity.profileSimilarity(a, b,
        v => if (v == null) 1L else freq.getOrElse(v.toLowerCase, 1L)))
    val attrArr = F.array(ctx.attrs.map(a => F.col(a).cast("string")): _*)
    val left  = ctx.rows.select(F.col(Tokenizer.EidCol).as("aid"), attrArr.as("aAttrs"))
    val right = ctx.rows.select(F.col(Tokenizer.EidCol).as("bid"), attrArr.as("bAttrs"))
    val matched = simUdf(F.col("aAttrs"), F.col("bAttrs")) >= threshold
    val r = pairs.select("aid", "bid")
      .join(left, "aid")
      .join(right, "bid")
      .agg(F.count("*"), F.collect_list(F.when(matched, F.struct("aid", "bid"))))
      .collect()(0)
    (r.getLong(0), r.getSeq[Row](1).map(l => (l.getLong(0), l.getLong(1))))
  }
}

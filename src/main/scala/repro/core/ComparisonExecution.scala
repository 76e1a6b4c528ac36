package repro.core

import org.apache.spark.sql.{DataFrame, functions => F}

/** Comparison-Execution (paper §6.1.iv): run the resolution function on
  * every candidate pair that survived meta-blocking and keep pairs whose
  * schema-agnostic profile similarity reaches the match threshold.
  */
object ComparisonExecution {

  /** Execute the comparisons in `pairs` against the entity rows of `ctx`;
    * the `(aid, bid, sim)` matched links, aid < bid. Every pair is one
    * executed comparison (the paper's `Comp.` measure), so the caller
    * counts `pairs` for it.
    *
    * @param pairs     `(aid, bid, ...)` candidate pairs (canonical order)
    * @param threshold profile-similarity match threshold θ
    */
  def execute(ctx: TableContext, pairs: DataFrame, threshold: Double): DataFrame = {
    val freq = ctx.valueFreq // captured in the UDF closure; values are lowercased
    val simUdf = F.udf((a: Seq[String], b: Seq[String]) =>
      Similarity.profileSimilarity(a, b,
        v => if (v == null) 1L else freq.getOrElse(v.toLowerCase, 1L)))
    val attrArr = F.array(ctx.attrs.map(a => F.col(a).cast("string")): _*)
    val left  = ctx.rows.select(F.col(Tokenizer.EidCol).as("aid"), attrArr.as("aAttrs"))
    val right = ctx.rows.select(F.col(Tokenizer.EidCol).as("bid"), attrArr.as("bAttrs"))
    pairs.select("aid", "bid")
      .join(left, "aid")
      .join(right, "bid")
      .withColumn("sim", simUdf(F.col("aAttrs"), F.col("bAttrs")))
      .where(F.col("sim") >= threshold)
      .select("aid", "bid", "sim")
  }
}

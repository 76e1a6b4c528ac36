package repro

import java.util.Locale

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, functions => F}
import repro.core._

import scala.collection.mutable

/** The Catalyst forms of Block-Join, of the planner's comparison estimate,
  * of Comparison-Execution and of Deduplicate-Join's cluster-level join,
  * which the driver-side refined TBI and the driver-side profiles replaced
  * in the operators. Tests check the operators against them.
  */
object CatalystReference {
  import Tokenizer.EidCol

  /** Block-Join as a semi-join: the refined TBI's rows whose token is a
    * QBI key of `ids` (read from the unrefined TBI), as
    * `(token, eid, isQuery)` with `isQuery` marking `ids`.
    */
  def eqbi(ctx: TableContext, ids: Set[Long], mb: MbConfig): DataFrame = {
    val isQuery = TableContext.isIn(ctx.spark.sparkContext.broadcast(ids))
    val keys    = ctx.tbi.where(isQuery).select("token")
    ctx.retainedTbi(mb).join(keys, Seq("token"), "left_semi").withColumn("isQuery", isQuery)
  }

  /** Σ_b q_b·(|S_b| − (q_b+1)/2) over an EQBI, as one aggregate. */
  def estimate(eqbi: DataFrame): Long = {
    val est = eqbi.groupBy("token")
      .agg(F.count("*").as("n"), F.sum(F.col("isQuery").cast("long")).as("q"))
      .where(F.col("q") > 0)
      .agg(F.sum(F.col("q") * (F.col("n") - (F.col("q") + 1) / 2.0)).as("c"))
      .collect()(0)
    if (est.isNullAt(0)) 0L else math.max(0L, math.round(est.getDouble(0)))
  }

  /** Comparison-Execution with RDD shuffle joins: each pair is joined with
    * the profiles of both its entities, drawn from the rows of `entities`
    * filtered by id, and compared. Returns the executed comparisons and
    * the matched `(aid, bid)` links.
    */
  def comparisons(ctx: TableContext, pairs: RDD[Edge], entities: Set[Long], threshold: Double)
      : (Long, Seq[(Long, Long)]) = {
    val sc       = ctx.spark.sparkContext
    val freq     = sc.broadcast(ctx.valueFreq)
    val profiles = TableContext.profiles(ctx.rows.where(TableContext.isIn(sc.broadcast(entities))), ctx.attrs)
    val perPartition = pairs.map(e => (e.aid, e.bid)).join(profiles)
      .map { case (a, (b, pa)) => (b, (a, pa)) }.join(profiles)
      .mapPartitions { it =>
        val f = freq.value
        val lookup = (v: String) => if (v == null) 1L else f.getOrElse(v.toLowerCase(Locale.ROOT), 1L)
        var n     = 0L
        val links = mutable.ArrayBuffer.empty[(Long, Long)]
        for ((b, ((a, pa), pb)) <- it) {
          n += 1
          if (Similarity.profileSimilarity(pa, pb, lookup) >= threshold) links += ((a, b))
        }
        Iterator((n, links.toSeq))
      }
      .collect()
    (perPartition.map(_._1).sum, perPartition.flatMap(_._2).toSeq)
  }

  /** Deduplicate-Join's cluster-level join as sort-merge joins of the two
    * sides' DR rows and grouped records.
    */
  def joinOperation(left: DedupOutcome, right: DedupOutcome, leftAttr: String, rightAttr: String)
      : DataFrame = {
    def side(out: DedupOutcome, attr: String, cluster: String, value: String): DataFrame = {
      val clusterOf = out.clusterOf
      val label     = F.udf((id: Long) => clusterOf.getOrElse(id, id))
      out.drRows
        .select(label(F.col(EidCol)).as(cluster), F.col(attr).cast("string").as(value))
        .where(F.col(value).isNotNull && F.length(F.trim(F.col(value))) > 0)
    }
    def grouped(out: DedupOutcome, cluster: String): DataFrame = {
      val g = GroupEntities.group(out.drRows, out.clusterOf, out.ctx.attrs)
      g.columns.foldLeft(g)((d, c) => d.withColumnRenamed(c, s"${out.ctx.name}_$c"))
        .withColumnRenamed(s"${out.ctx.name}_cluster", cluster)
    }
    side(left, leftAttr, "lcluster", "__lv")
      .join(side(right, rightAttr, "rcluster", "__rv"), F.col("__lv") === F.col("__rv"))
      .select("lcluster", "rcluster").distinct()
      .join(grouped(left, "lcluster"), "lcluster")
      .join(grouped(right, "rcluster"), "rcluster")
  }
}

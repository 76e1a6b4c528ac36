package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

/** Meta-blocking configuration (paper §6.1.iii, Table 8).
  *
  * `ALL`   = BP + BF + EP (the paper's default),
  * `BP+BF` = purging and filtering only,
  * `BP+EP` = purging and edge pruning only.
  */
final case class MbConfig(
    purge: Boolean = true,
    filter: Boolean = true,
    edgePruning: Boolean = true,
) {
  def label: String =
    (Seq("BP").filter(_ => purge) ++ Seq("BF").filter(_ => filter) ++
      Seq("EP").filter(_ => edgePruning)).mkString("+") match {
      case "BP+BF+EP" => "ALL"
      case other      => other
    }
}

object MbConfig {
  /** Comparison-budget multiplier of Block Purging: the retained blocks
    * carry at most `DefaultPurgeSf · |E|` comparisons (see
    * [[MetaBlocking.purgeThreshold]] for why this replaces the paper's
    * SF = 1.025, whose literal inequality is vacuous).
    */
  val DefaultPurgeSf: Double = 50.0

  val All: MbConfig  = MbConfig()
  val BpBf: MbConfig = MbConfig(edgePruning = false)
  val BpEp: MbConfig = MbConfig(filter = false)
  val None: MbConfig = MbConfig(purge = false, filter = false, edgePruning = false)
}

/** Block-refinement (Block Purging, Block Filtering) methods over a block
  * collection held as an `(token, eid, isQuery)` DataFrame, and the
  * comparison refinement (candidate pairs, Edge Pruning) over its
  * [[BlockIndex]] (paper §4, §6.1, [27]).
  */
object MetaBlocking {

  /** Cardinality ‖b‖ of a block of |b| entities. */
  def cardinality(size: Long): Long = size * (size - 1) / 2

  /** Block Purging comparison threshold (paper §7.2.1, [23]).
    *
    * The paper's consecutive-level inequality |bᵢ|·‖bᵢ₋₁‖ < SF·‖bᵢ‖·|bᵢ₋₁|
    * with SF = 1.025 is vacuously true for every ascending level when read
    * literally (per-block comparison density (|b|−1)/2 is monotone in |b|),
    * so we implement BP's stated intent — "cleaning the block processing
    * list from oversized blocks that correspond to tokens of little
    * discriminativeness" — with a comparison-budget criterion: scanning
    * the distinct cardinality levels in ascending order, levels are kept
    * while the cumulative retained comparisons stay within `sf · |E|`
    * (the smallest, most discriminative blocks win the budget; the heavy
    * tail is purged). This enforces BP's goal — total comparisons
    * near-linear in the collection size — directly and scale-invariantly.
    * The smallest level is always kept. Input: histogram of
    * (blockSize, numberOfBlocks) plus the collection size |E|.
    */
  def purgeThreshold(
      sizeHistogram: Seq[(Long, Long)],
      sf: Double = MbConfig.DefaultPurgeSf,
      nEntities: Long,
  ): Long = {
    val levels = sizeHistogram
      .filter(_._1 >= 2)
      .map { case (sz, cnt) => (cardinality(sz), cardinality(sz) * cnt) }
      .groupBy(_._1)
      .map { case (card, rows) => (card, rows.map(_._2).sum) }
      .toSeq
      .sortBy(_._1)
    if (levels.isEmpty) return Long.MaxValue
    val budget = sf * nEntities
    var cum = levels.head._2.toDouble
    var t   = levels.head._1
    var stopped = false
    for ((card, comps) <- levels.tail if !stopped) {
      if (cum + comps <= budget) { t = card; cum += comps }
      else stopped = true
    }
    t
  }

  /** Block sizes |b| of a block collection as `(token, bsize)`. */
  def blockSizes(entries: DataFrame): DataFrame =
    entries.groupBy("token").agg(F.count("*").as("bsize"))

  /** Block Purging: drop blocks whose cardinality exceeds the threshold
    * computed from this collection's own size histogram. `sizes` holds
    * the `(token, bsize)` block sizes of `entries`. Returns the filtered
    * entries and the chosen threshold.
    */
  def purge(entries: DataFrame, sizes: DataFrame): (DataFrame, Long) = {
    val nEntities = entries.select("eid").distinct().count()
    val hist = sizes
      .groupBy("bsize").agg(F.count("*").as("nblocks"))
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
      .toSeq
    val t = purgeThreshold(hist, nEntities = nEntities)
    val keep = sizes.where(F.expr(s"bsize * (bsize - 1) / 2 <= ${t}L")).select("token")
    (entries.join(keep, "token"), t)
  }

  /** Block Filtering: every entity is retained only in its
    * ⌈p·‖Bₑ‖⌉ smallest blocks (ties broken by token for determinism),
    * reflecting that a block has different importance per entity [27].
    * `sizes` holds `(token, bsize)` for every block of `entries`.
    */
  def filter(entries: DataFrame, sizes: DataFrame, p: Double = 0.8): DataFrame = {
    val byEntity  = Window.partitionBy("eid").orderBy(F.col("bsize"), F.col("token"))
    val perEntity = Window.partitionBy("eid")
    entries
      .join(sizes, "token")
      .withColumn("rk", F.row_number().over(byEntity))
      .withColumn("nb", F.count("*").over(perEntity))
      .where(F.col("rk") <= F.greatest(F.lit(1), F.ceil(F.col("nb") * p)))
      .drop("bsize", "rk", "nb")
  }

  /** Candidate comparisons of a block collection: one edge per unordered
    * entity pair co-occurring in ≥1 block and touching the query side
    * (paper §6.1.iv restricts Comparison-Execution to QE × block), each
    * emitted once so no comparison is executed twice. The edge weight is
    * the ARCS scheme [25] — the sum of reciprocal block cardinalities over
    * the pair's common blocks — so co-occurrence in a rare (discriminative)
    * block outweighs co-occurrence in an oversized one. Entity-based, as in
    * parallel meta-blocking: each query entity computes its own edges from
    * the broadcast index (see [[BlockIndex.edgesOf]]), so the pairs need
    * neither a self-join nor a shuffle.
    */
  def candidatePairs(sc: SparkContext, index: Broadcast[BlockIndex]): RDD[Edge] =
    sc.parallelize(index.value.owners.toSeq, sc.defaultParallelism).flatMap(e => index.value.edgesOf(e))

  /** [[candidatePairs]] of a `(token, eid, isQuery)` block collection, as
    * `(aid, bid, weight)` rows; Spark's context cleaner releases the
    * broadcast index once the rows are unreachable.
    */
  def candidatePairs(entries: DataFrame): DataFrame = {
    val spark = entries.sparkSession
    val sc    = spark.sparkContext
    spark.createDataFrame(candidatePairs(sc, sc.broadcast(BlockIndex(entries))))
  }

  /** Weighted Edge Pruning: drop blocking-graph edges whose ARCS weight
    * is below the collection's mean edge weight [25, 27]; the mean is one
    * Spark action. The threshold is capped at 1.0: an edge of ARCS ≥ 1
    * co-occurs in a dedicated two-entity block (or several near-dedicated
    * ones) — intrinsically strong evidence that must not depend on how
    * heavy the rest of the graph happens to be, which also keeps the
    * pruning decision stable between a query's EQBI sub-graph and the
    * full-table graph (DQ Correctness, paper §6.1).
    */
  def edgePruning(edges: RDD[Edge]): RDD[Edge] = {
    val (sum, n) = edges.aggregate((0.0, 0L))(
      (acc, e) => (acc._1 + e.weight, acc._2 + 1), (x, y) => (x._1 + y._1, x._2 + y._2))
    if (n == 0) edges
    else {
      val threshold = math.min(sum / n, 1.0)
      edges.filter(_.weight >= threshold)
    }
  }

  /** [[edgePruning]] of `(aid, bid, weight, …)` rows, as `(aid, bid, weight)` rows. */
  def edgePruning(pairs: DataFrame): DataFrame =
    pairs.sparkSession.createDataFrame(edgePruning(
      pairs.select(F.col("aid"), F.col("bid"), F.col("weight").cast("double")).rdd
        .map(r => Edge(r.getLong(0), r.getLong(1), r.getDouble(2)))))
}

package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, SparkSession, functions => F}
import org.apache.spark.storage.StorageLevel

import scala.collection.mutable

/** Per-table state mirroring the paper's once-off initialisation (§3):
  * the cached entity rows and profiles, the Table Block Index TBI_E (with
  * its block sizes, i.e. the sorted ITBI view), and the Link Index LI_E.
  * Built once when a table is registered; shared by every query on it.
  *
  * @param truth optional ground-truth `(eid, cluster)` table from the
  *              dirty-data generator, used only by the PC measure.
  */
final class TableContext(
    val name: String,
    val df: DataFrame,
    val truth: Option[DataFrame] = None,
) {
  import Tokenizer.EidCol

  require(df.columns.contains(EidCol), s"table $name needs an '$EidCol' column")

  def spark: SparkSession = df.sparkSession

  /** Attribute names (everything but the entity id). */
  val attrs: Seq[String] = Tokenizer.attrCols(df)

  /** Persist `d` and fill its cache with one action. */
  private def materialise(d: DataFrame): DataFrame = {
    d.persist(StorageLevel.MEMORY_AND_DISK).count()
    d
  }

  /** Entity rows, cached — queries repeatedly scan them. */
  lazy val rows: DataFrame = materialise(df)

  /** The ids of the entities that pass `pred`: one Spark job. */
  def idsWhere(pred: Column): Set[Long] =
    rows.where(pred).select(F.col(EidCol).cast("long")).collect().map(_.getLong(0)).toSet

  private var profileStore: mutable.LongMap[Array[String]] = null

  /** Every entity's profile ([[TableContext.profiles]]) by id, held on the
    * driver as the paper keeps its entities in memory (§3): collected once
    * per table, with one Spark job. Statements read entities by id here.
    */
  def profiles: collection.Map[Long, Array[String]] = synchronized {
    if (profileStore == null)
      profileStore = mutable.LongMap.from(TableContext.profiles(rows, attrs).collect())
    profileStore
  }

  /** TBI_E as `(eid, token)` entity/block incidence pairs. */
  lazy val tbi: DataFrame = materialise(Tokenizer.tokenize(rows))

  /** Block sizes |b| per blocking key. */
  lazy val blockSizes: DataFrame = materialise(MetaBlocking.blockSizes(tbi))

  lazy val size: Long          = rows.count()
  lazy val tbiBlockCount: Long = blockSizes.count()

  /** Frequency of every repeated cell value across all attributes —
    * the discriminativeness weights of the resolution function (values
    * occurring once are omitted; the lookup defaults to 1).
    */
  lazy val valueFreq: Map[String, Long] = {
    val attrArr = F.array(attrs.map(a => F.lower(F.col(a).cast("string"))): _*)
    rows.select(F.explode(attrArr).as("v"))
      .where(F.col("v").isNotNull)
      .groupBy("v").count()
      .where(F.col("count") >= 2)
      .collect()
      .map(r => r.getString(0) -> r.getLong(1))
      .toMap
  }

  /** The progressive Link Index; starts empty, amended per query. */
  val li = new LinkIndex

  private val retainedMemo =
    scala.collection.concurrent.TrieMap.empty[(Boolean, Boolean), DataFrame]

  /** TBI after the block-refinement methods (Block Purging + Block
    * Filtering) under a meta-blocking configuration — computed once per
    * table and reused by every query. Evaluating BP/BF on the full TBI
    * rather than per-query EQBI keeps the refinement decisions identical
    * between a query's sub-graph and the full-table graph (the paper's
    * DQ-Correctness needs deterministic, scope-stable meta-blocking) and
    * moves the cost into the once-off initialisation. Both methods read
    * the cached block sizes: BP drops whole blocks, so every block it
    * keeps has its TBI size.
    */
  def retainedTbi(mb: MbConfig): DataFrame =
    retainedMemo.getOrElseUpdate((mb.purge, mb.filter), {
      var cur = tbi
      if (mb.purge) cur = MetaBlocking.purge(cur, blockSizes)._1
      if (mb.filter) cur = MetaBlocking.filter(cur, blockSizes)
      materialise(cur)
    })

  private val indexMemo =
    scala.collection.concurrent.TrieMap.empty[(Boolean, Boolean), BlockIndex]

  /** The refined TBI of [[retainedTbi]] held on the driver, as the paper
    * keeps its TBI in memory (§3): each block's members and each entity's
    * blocks, every entity a query entity. Collected once per table and
    * configuration; a statement's Block-Join and the planner's estimate
    * are lookups in it ([[BlockIndex.restrict]]).
    */
  def blockIndex(mb: MbConfig): BlockIndex =
    indexMemo.getOrElseUpdate((mb.purge, mb.filter),
      BlockIndex(retainedTbi(mb).withColumn("isQuery", F.lit(true))))

  /** Memoised full-table batch runs per configuration (the BA baseline). */
  private[repro] val batchMemo =
    scala.collection.concurrent.TrieMap.empty[DedupConfig, BatchResult]

  /** Forget all progressive state (used between benchmark configurations). */
  def resetLinkIndex(): Unit = li.clear()

  /** Release the cached indices, the refined TBIs and their driver-side
    * block indices included, and the driver-side profiles.
    */
  def unpersistAll(): Unit = {
    retainedMemo.values.foreach(_.unpersist())
    retainedMemo.clear()
    indexMemo.clear()
    synchronized { profileStore = null }
    blockSizes.unpersist(); tbi.unpersist(); rows.unpersist()
  }
}

object TableContext {
  import Tokenizer.EidCol

  def apply(name: String, df: DataFrame, truth: Option[DataFrame] = None): TableContext =
    new TableContext(name, df, truth)

  /** Whether the entity id is one of the broadcast `ids`. */
  def isIn(ids: Broadcast[Set[Long]]): Column =
    F.udf((id: Long) => ids.value.contains(id)).apply(F.col(EidCol))

  /** `(eid, attribute values cast to string)` of each entity row: what the
    * resolution function compares and Group-Entities folds.
    */
  def profiles(rows: DataFrame, attrs: Seq[String]): RDD[(Long, Array[String])] =
    rows.select(F.col(EidCol).cast("long") +: attrs.map(a => F.col(a).cast("string")): _*).rdd
      .map(r => (r.getLong(0), Array.tabulate(attrs.length)(i => r.getString(i + 1))))
}

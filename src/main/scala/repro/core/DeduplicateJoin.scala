package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import scala.jdk.CollectionConverters._

/** Deduplicate-Join operator (paper §6.2, Algorithms 1–2).
  *
  * One branch arrives already resolved (a DR_E); the dirty branch is first
  * reduced to the entities that join with *any* value variant of the
  * resolved side (Alg. 1 line 4), then resolved with the Deduplicate
  * operator, and finally the two DR sets are joined at duplicate-cluster
  * granularity so every variant of an entity's values can satisfy the join
  * predicate (Alg. 2). Both joins read the tables' driver-side profiles
  * ([[TableContext.profiles]]); no join is planned in Spark.
  */
object DeduplicateJoin {
  import Tokenizer.EidCol

  /** DIRTY-RIGHT: `left` is resolved; reduce + resolve the right side. */
  def dirtyRight(
      left: DedupOutcome,
      rightCtx: TableContext,
      rightPred: Column,
      leftAttr: String,
      rightAttr: String,
      cfg: DedupConfig,
  ): (DedupOutcome, DedupOutcome) = {
    val rightQe = reduceDirtySide(left, leftAttr, rightCtx, rightPred, rightAttr)
    val rightDr = Deduplicate.run(rightCtx, rightQe, cfg)
    (left, rightDr)
  }

  /** DIRTY-LEFT: `right` is resolved; reduce + resolve the left side. */
  def dirtyLeft(
      leftCtx: TableContext,
      leftPred: Column,
      right: DedupOutcome,
      leftAttr: String,
      rightAttr: String,
      cfg: DedupConfig,
  ): (DedupOutcome, DedupOutcome) = {
    val leftQe = reduceDirtySide(right, rightAttr, leftCtx, leftPred, leftAttr)
    val leftDr = Deduplicate.run(leftCtx, leftQe, cfg)
    (leftDr, right)
  }

  /** QE' of the dirty side: its filtered entities that equi-join with any
    * join-attribute variant present in the resolved side's DR (Alg. 1).
    * One Spark job, the filter; the join values are read on the driver.
    */
  private def reduceDirtySide(
      resolved: DedupOutcome,
      resolvedAttr: String,
      dirtyCtx: TableContext,
      dirtyPred: Column,
      dirtyAttr: String,
  ): Set[Long] = {
    // `values` holds no blank or null value, so neither matches
    val values  = joinValues(resolved, resolvedAttr).map(_._2).toSet
    val valueOf = joinValue(dirtyCtx, dirtyAttr)
    dirtyCtx.idsWhere(dirtyPred).filter(id => values(valueOf(id)))
  }

  /** The join value on `attr` of an entity of `ctx`, by id. The entity id
    * joins as its string, as a cast column would.
    */
  private def joinValue(ctx: TableContext, attr: String): Long => String =
    if (attr.equalsIgnoreCase(EidCol)) _.toString
    else {
      val i = ctx.attrs.indexWhere(_.equalsIgnoreCase(attr))
      require(i >= 0, s"unknown join attribute '$attr' of table ${ctx.name}")
      val store = ctx.profiles
      id => store(id)(i)
    }

  /** `(cluster, join value)` of every DR entity whose `attr` value is not
    * blank: the value variants Alg. 2 joins on.
    */
  private def joinValues(side: DedupOutcome, attr: String): Seq[(Long, String)] = {
    val valueOf = joinValue(side.ctx, attr)
    side.clusterOf.toSeq.map { case (id, cluster) => (cluster, valueOf(id)) }
      .filter { case (_, v) => GroupEntities.nonBlank(v) }
  }

  /** Alg. 2 at cluster granularity: the joined DR is the set of
    * (left-cluster, right-cluster) pairs where some pair of member
    * entities equi-joins; the output row is the grouped left record next
    * to the grouped right record, as Group-Entities folds them. Columns:
    * `rcluster`, `lcluster`, then each side's grouped columns but its
    * cluster, prefixed `<table>_`; rows ordered by (lcluster, rcluster).
    * The result is a driver-local DataFrame.
    */
  def joinOperation(
      left: DedupOutcome,
      right: DedupOutcome,
      leftAttr: String,
      rightAttr: String,
  ): DataFrame = {
    def groups(side: DedupOutcome): Map[Long, Seq[Any]] =
      GroupEntities.fold(side.drProfiles, side.clusterOf, side.ctx.attrs)
        .map(r => r.getLong(0) -> r.toSeq.tail).toMap
    val (lGroups, rGroups) = (groups(left), groups(right))
    val rByValue = joinValues(right, rightAttr).groupMap(_._2)(_._1)
    val pairs = joinValues(left, leftAttr)
      .flatMap { case (lc, v) => rByValue.getOrElse(v, Nil).map(lc -> _) }
      .distinct.sorted
    val rows = pairs.map { case (lc, rc) => Row.fromSeq(rc +: lc +: (lGroups(lc) ++ rGroups(rc))) }
    def fields(side: DedupOutcome) =
      GroupEntities.schema(side.ctx.attrs).fields.tail.map(f => f.copy(name = s"${side.ctx.name}_${f.name}"))
    val schema = StructType(Seq("rcluster", "lcluster").map(StructField(_, LongType, nullable = false)) ++
      fields(left) ++ fields(right))
    left.ctx.spark.createDataFrame(rows.asJava, schema)
  }
}

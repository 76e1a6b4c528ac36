package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import org.apache.spark.unsafe.types.UTF8String

import scala.jdk.CollectionConverters._

/** Group-Entities operator (paper §6.3): fold every set of duplicates into
  * one "hyper-entity" record per cluster, concatenating the distinct
  * member values of each attribute with " | " (nulls and blanks dropped),
  * exactly as the paper's Table 3 presentation.
  */
object GroupEntities {

  /** Spark's string order (UTF-8 bytes), which `array_sort` applies. */
  private val SparkStringOrder: Ordering[String] = Ordering.by(UTF8String.fromString)

  /** Whether a value is neither null nor blank (only spaces, as Spark's
    * `trim` strips).
    */
  def nonBlank(v: String): Boolean = v != null && v.exists(_ != ' ')

  /** Grouped representation of `rows`, one output row per cluster, ordered
    * by cluster. The rows are collected and folded on the driver, where the
    * answer is collected anyway; the result is a driver-local DataFrame.
    *
    * Output columns: `cluster` (smallest member id), `members`
    * (comma-joined sorted member ids — used by equivalence tests), and one
    * concatenated column per attribute: its distinct values that are not
    * blank, sorted.
    */
  def group(rows: DataFrame, clusterOf: Map[Long, Long], attrs: Seq[String]): DataFrame =
    rows.sparkSession.createDataFrame(
      fold(TableContext.profiles(rows, attrs).collect(), clusterOf, attrs).asJava, schema(attrs))

  /** The [[group]] rows of collected `(eid, attribute values)` profiles. */
  def fold(profiles: collection.Seq[(Long, Array[String])], clusterOf: Map[Long, Long], attrs: Seq[String])
      : Seq[Row] =
    profiles
      .groupBy { case (id, _) => clusterOf.getOrElse(id, id) }
      .toSeq.sortBy(_._1)
      .map { case (cluster, ms) =>
        val members = ms.map(_._1).distinct.sorted.mkString(",")
        val values = attrs.indices.map { i =>
          ms.map(_._2(i)).filter(nonBlank).distinct.sorted(SparkStringOrder).mkString(" | ")
        }
        Row.fromSeq(cluster +: members +: values)
      }

  /** The schema of [[group]]'s output. */
  def schema(attrs: Seq[String]): StructType =
    StructType(StructField("cluster", LongType, nullable = false) +:
      ("members" +: attrs).map(StructField(_, StringType, nullable = false)))
}

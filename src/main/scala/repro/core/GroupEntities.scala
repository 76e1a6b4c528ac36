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

  /** Grouped representation of `rows`, one output row per cluster, ordered
    * by cluster. The rows are collected and folded on the driver, where the
    * answer is collected anyway; the result is a driver-local DataFrame.
    *
    * Output columns: `cluster` (smallest member id), `members`
    * (comma-joined sorted member ids — used by equivalence tests), and one
    * concatenated column per attribute: its distinct values that are not
    * blank (only spaces, as Spark's `trim` strips), sorted.
    */
  def group(rows: DataFrame, clusterOf: Map[Long, Long], attrs: Seq[String]): DataFrame = {
    val grouped = TableContext.profiles(rows, attrs).collect()
      .groupBy { case (id, _) => clusterOf.getOrElse(id, id) }
      .toSeq.sortBy(_._1)
      .map { case (cluster, ms) =>
        val members = ms.map(_._1).distinct.sorted.mkString(",")
        val values = attrs.indices.map { i =>
          ms.flatMap(m => Option(m._2(i)).filter(_.exists(_ != ' ')))
            .distinct.sorted(SparkStringOrder).mkString(" | ")
        }
        Row.fromSeq(cluster +: members +: values)
      }
    val schema = StructType(StructField("cluster", LongType, nullable = false) +:
      ("members" +: attrs).map(StructField(_, StringType, nullable = false)))
    rows.sparkSession.createDataFrame(grouped.asJava, schema)
  }
}

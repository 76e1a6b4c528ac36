package repro.sql

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.TableContext
import scala.collection.concurrent.TrieMap

/** Registry of dirty tables known to the QueryER front-end: name →
  * TableContext (cached rows + TBI + LI), mirroring the paper's once-off
  * per-table initialisation (§3). Also registers the raw rows as a temp
  * view so non-DEDUP SQL over the same name still works.
  */
object TableRegistry {

  private val tables = TrieMap.empty[String, TableContext]

  def register(spark: SparkSession, name: String, df: DataFrame,
               truth: Option[DataFrame] = None): TableContext = {
    val ctx = TableContext(name, df, truth)
    tables.put(name.toLowerCase, ctx)
    df.createOrReplaceTempView(name)
    ctx
  }

  def get(name: String): Option[TableContext] = tables.get(name.toLowerCase)

  def apply(name: String): TableContext =
    get(name).getOrElse(throw new NoSuchElementException(
      s"table '$name' is not registered with QueryER (known: ${tables.keys.mkString(", ")})"))
}

package repro.sql

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DedupConfig, TableContext, Tokenizer}
import repro.planner._

/** Programmatic facade of the QueryER framework: register dirty tables,
  * then run `SELECT DEDUP …` statements (or pre-built specs) against them.
  */
object QueryEr {

  /** Register a dirty table; builds its TBI/LI context once-off. */
  def register(spark: SparkSession, name: String, df: DataFrame,
               truth: Option[DataFrame] = None): TableContext =
    TableRegistry.register(spark, name, df, truth)

  /** Evaluate a DEDUP SQL statement, returning the grouped result. */
  def sql(
      spark: SparkSession,
      sqlText: String,
      kind: PlannerKind = AdvancedPlanner,
      cfg: DedupConfig = DedupConfig(),
  ): DataFrame = sqlWithStats(spark, sqlText, kind, cfg)._1

  /** Same, also returning the execution statistics. */
  def sqlWithStats(
      spark: SparkSession,
      sqlText: String,
      kind: PlannerKind = AdvancedPlanner,
      cfg: DedupConfig = DedupConfig(),
  ): (DataFrame, ExecStats) =
    DedupSqlParser.parse(spark, sqlText) match {
      case DedupSqlParser.ParsedSelect(spec) =>
        val ctx = TableRegistry(spec.table)
        spec.projection.foreach(requireColumn(ctx, _, "SELECT", "cluster", "members"))
        Executor.runSelect(ctx, spec, cfg)
      case DedupSqlParser.ParsedJoin(spec) =>
        val (l, r) = (TableRegistry(spec.left.table), TableRegistry(spec.right.table))
        requireColumn(l, spec.leftAttr, "ON", Tokenizer.EidCol)
        requireColumn(r, spec.rightAttr, "ON", Tokenizer.EidCol)
        // each side's `cluster` is renamed in the joined answer
        for ((t, a) <- spec.projection)
          requireColumn(if (t.equalsIgnoreCase(spec.left.table)) l else r, a, "SELECT", "members")
        Executor.runJoin(l, r, spec, kind, cfg)
    }

  /** Reject a column of `clause` that the table or the answer lacks before
    * any ER runs (matched case-insensitively, as Spark resolves it).
    */
  private def requireColumn(ctx: TableContext, col: String, clause: String, extra: String*): Unit = {
    val cols = ctx.attrs ++ extra
    require(cols.exists(_.equalsIgnoreCase(col)),
      s"unknown column '$col' in $clause: table ${ctx.name} has ${cols.mkString(", ")}")
  }
}

package repro.sql

import org.apache.spark.sql.{SparkSession, SparkSessionExtensions}
import org.apache.spark.sql.catalyst.{FunctionIdentifier, TableIdentifier}
import org.apache.spark.sql.catalyst.expressions.Expression
import org.apache.spark.sql.catalyst.parser.ParserInterface
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.types.{DataType, StructType}

/** Catalyst integration of QueryER via `SparkSessionExtensions`
  * (`--conf spark.sql.extensions=repro.sql.QueryErExtensions`).
  *
  * A delegating [[ParserInterface]] intercepts statements that start with
  * `SELECT DEDUP` and evaluates them with the Deduplicate /
  * Deduplicate-Join / Group-Entities operators; the returned logical plan
  * is the materialised answer, a local relation. Every other statement
  * is delegated to Spark's parser verbatim, preserving standard SQL
  * semantics exactly as the paper requires ("otherwise the typical SQL
  * semantics are used", §3).
  */
class QueryErExtensions extends (SparkSessionExtensions => Unit) {
  override def apply(ext: SparkSessionExtensions): Unit =
    ext.injectParser((session, delegate) => new DedupParser(session, delegate))
}

/** Parser that turns `SELECT DEDUP …` into the QueryER logical plan. */
class DedupParser(session: SparkSession, delegate: ParserInterface) extends ParserInterface {

  override def parsePlan(sqlText: String): LogicalPlan =
    if (DedupSqlParser.isDedup(sqlText))
      QueryEr.sql(session, sqlText).queryExecution.logical
    else delegate.parsePlan(sqlText)

  override def parseQuery(sqlText: String): LogicalPlan =
    if (DedupSqlParser.isDedup(sqlText))
      QueryEr.sql(session, sqlText).queryExecution.logical
    else delegate.parseQuery(sqlText)

  override def parseExpression(sqlText: String): Expression =
    delegate.parseExpression(sqlText)
  override def parseTableIdentifier(sqlText: String): TableIdentifier =
    delegate.parseTableIdentifier(sqlText)
  override def parseFunctionIdentifier(sqlText: String): FunctionIdentifier =
    delegate.parseFunctionIdentifier(sqlText)
  override def parseMultipartIdentifier(sqlText: String): Seq[String] =
    delegate.parseMultipartIdentifier(sqlText)
  override def parseTableSchema(sqlText: String): StructType =
    delegate.parseTableSchema(sqlText)
  override def parseDataType(sqlText: String): DataType =
    delegate.parseDataType(sqlText)
  override def parseRoutineParam(sqlText: String): StructType =
    delegate.parseRoutineParam(sqlText)
}

package repro.sql

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation, UnresolvedStar}
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical._
import repro.planner._

/** Front-end for Dedupe queries (paper §3): the DEDUP keyword at the
  * beginning of the SELECT clause flags the query for analysis-aware
  * deduplication. The stripped statement is parsed by Spark's own SQL
  * parser; the resulting logical plan is walked into a [[SelectSpec]] /
  * [[JoinSpec]] covering the paper's flat SPJ class (equality, IN,
  * numeric comparisons, AND/OR, one equi-join).
  */
object DedupSqlParser {

  private val DedupPrefix = "(?is)^(\\s*select\\s+)dedup\\s+".r

  /** Does this statement carry the DEDUP keyword? */
  def isDedup(sqlText: String): Boolean = DedupPrefix.findFirstIn(sqlText).isDefined

  /** Remove the DEDUP keyword, leaving plain SQL. */
  def strip(sqlText: String): String = DedupPrefix.replaceFirstIn(sqlText, "$1")

  /** Either a single-table or a two-table dedupe query. */
  sealed trait Parsed
  final case class ParsedSelect(spec: SelectSpec)                       extends Parsed
  final case class ParsedJoin(spec: JoinSpec)                           extends Parsed

  def parse(spark: SparkSession, sqlText: String): Parsed = {
    require(isDedup(sqlText), s"not a DEDUP query: $sqlText")
    val plan = spark.sessionState.sqlParser.parsePlan(strip(sqlText))
    fromPlan(plan)
  }

  /** Walk a parsed (unresolved) logical plan into a query spec. */
  def fromPlan(plan: LogicalPlan): Parsed = {
    // Peel the outer Project (projection list).
    val (projExprs, belowProject) = plan match {
      case Project(exprs, child) => (exprs, child)
      case other                 => (Nil, other)
    }
    val (pred, belowFilter) = belowProject match {
      case Filter(cond, child) => (toPred(cond), child)
      case other               => (TruePred, other)
    }
    stripAliases(belowFilter) match {
      case Join(l, r, Inner, Some(cond), _) =>
        val lTable = tableOf(l)
        val rTable = tableOf(r)
        val (lAttr, rAttr) = joinAttrs(cond, lTable, rTable)
        // WHERE conditions are routed to the side owning the attribute.
        val (lPred, rPred) = splitPred(pred, lTable, rTable)
        val projection = projExprs.flatMap {
          case UnresolvedStar(_) => Nil
          case a: UnresolvedAttribute if a.nameParts.length >= 2 =>
            Seq((a.nameParts.init.last, a.nameParts.last))
          case a: UnresolvedAttribute =>
            Seq((lTable, a.nameParts.last)) // unqualified → left by convention
          case Alias(a: UnresolvedAttribute, _) if a.nameParts.length >= 2 =>
            Seq((a.nameParts.init.last, a.nameParts.last))
          case other =>
            throw new IllegalArgumentException(s"unsupported projection: $other")
        }
        ParsedJoin(JoinSpec(
          SelectSpec(lTable, lPred), SelectSpec(rTable, rPred), lAttr, rAttr, projection))
      case rel =>
        val table = tableOf(rel)
        val projection = projExprs.flatMap {
          case UnresolvedStar(_)          => Nil
          case a: UnresolvedAttribute     => Seq(a.nameParts.last)
          case Alias(a: UnresolvedAttribute, _) => Seq(a.nameParts.last)
          case other =>
            throw new IllegalArgumentException(s"unsupported projection: $other")
        }
        ParsedSelect(SelectSpec(table, dequalify(pred), projection))
    }
  }

  private def stripAliases(plan: LogicalPlan): LogicalPlan = plan match {
    case SubqueryAlias(_, child) => stripAliases(child)
    case other                   => other
  }

  private def tableOf(plan: LogicalPlan): String = stripAliases(plan) match {
    case r: UnresolvedRelation => r.multipartIdentifier.last
    case other =>
      throw new IllegalArgumentException(s"unsupported FROM clause element: $other")
  }

  private def joinAttrs(cond: Expression, lTable: String, rTable: String): (String, String) =
    cond match {
      case EqualTo(a: UnresolvedAttribute, b: UnresolvedAttribute) =>
        val (qa, qb) = (qualifier(a), qualifier(b))
        if (qa.contains(rTable.toLowerCase) || qb.contains(lTable.toLowerCase))
          (b.nameParts.last, a.nameParts.last)
        else (a.nameParts.last, b.nameParts.last)
      case other =>
        throw new IllegalArgumentException(s"unsupported join condition: $other")
    }

  private def qualifier(a: UnresolvedAttribute): Option[String] =
    if (a.nameParts.length >= 2) Some(a.nameParts.init.last.toLowerCase) else None

  /** Route a conjunctive WHERE clause's terms to the join side owning the
    * qualified attribute; unqualified terms go left.
    */
  private def splitPred(pred: Pred, lTable: String, rTable: String): (Pred, Pred) = pred match {
    case TruePred => (TruePred, TruePred)
    case AndPred(l, r) =>
      val (ll, lr) = splitPred(l, lTable, rTable)
      val (rl, rr) = splitPred(r, lTable, rTable)
      (and(ll, rl), and(lr, rr))
    case leaf =>
      if (sideOfLeaf(leaf).exists(_.equalsIgnoreCase(rTable))) (TruePred, dequalify(leaf))
      else (dequalify(leaf), TruePred)
  }

  private def and(a: Pred, b: Pred): Pred = (a, b) match {
    case (TruePred, x) => x
    case (x, TruePred) => x
    case (x, y)        => AndPred(x, y)
  }

  // Leaf predicates built by toPred keep their qualifier in the attr name
  // as "table.attr" until routed; these helpers split that back out.
  private def sideOfLeaf(p: Pred): Option[String] = p match {
    case EqPred(a, _)      => qualifierOfAttr(a)
    case InPred(a, _)      => qualifierOfAttr(a)
    case CmpPred(a, _, _)  => qualifierOfAttr(a)
    case RangePred(a, _, _) => qualifierOfAttr(a)
    case OrPred(l, _)      => sideOfLeaf(l)
    case _                 => None
  }

  private def qualifierOfAttr(a: String): Option[String] =
    if (a.contains('.')) Some(a.split('.').init.last) else None

  private def dequalify(p: Pred): Pred = p match {
    case EqPred(a, v)       => EqPred(last(a), v)
    case InPred(a, vs)      => InPred(last(a), vs)
    case CmpPred(a, op, v)  => CmpPred(last(a), op, v)
    case RangePred(a, l, h) => RangePred(last(a), l, h)
    case AndPred(l, r)      => AndPred(dequalify(l), dequalify(r))
    case OrPred(l, r)       => OrPred(dequalify(l), dequalify(r))
    case other              => other
  }

  private def last(a: String): String = a.split('.').last

  /** Convert a parsed WHERE expression into the predicate algebra. */
  def toPred(e: Expression): Pred = e match {
    case EqualTo(a: UnresolvedAttribute, Literal(v, _))          => EqPred(attr(a), s"$v")
    case EqualTo(Literal(v, _), a: UnresolvedAttribute)          => EqPred(attr(a), s"$v")
    case In(a: UnresolvedAttribute, vs) =>
      InPred(attr(a), vs.map {
        case Literal(v, _) => s"$v"
        case other => throw new IllegalArgumentException(s"unsupported IN element: $other")
      })
    case LessThan(a: UnresolvedAttribute, Literal(v, _))         => CmpPred(attr(a), "<", num(v))
    case LessThanOrEqual(a: UnresolvedAttribute, Literal(v, _))  => CmpPred(attr(a), "<=", num(v))
    case GreaterThan(a: UnresolvedAttribute, Literal(v, _))      => CmpPred(attr(a), ">", num(v))
    case GreaterThanOrEqual(a: UnresolvedAttribute, Literal(v, _)) => CmpPred(attr(a), ">=", num(v))
    case And(l, r) => AndPred(toPred(l), toPred(r))
    case Or(l, r)  => OrPred(toPred(l), toPred(r))
    case f: org.apache.spark.sql.catalyst.analysis.UnresolvedFunction
        if f.nameParts.last.equalsIgnoreCase("between") =>
      f.arguments match {
        case Seq(a: UnresolvedAttribute, Literal(lo, _), Literal(hi, _)) =>
          RangePred(attr(a), num(lo), num(hi))
        case other =>
          throw new IllegalArgumentException(s"unsupported BETWEEN shape: $other")
      }
    case other =>
      throw new IllegalArgumentException(s"unsupported WHERE expression: $other")
  }

  private def attr(a: UnresolvedAttribute): String = a.nameParts.mkString(".")
  private def num(v: Any): Double = v match {
    case n: Number => n.doubleValue()
    case s         => s.toString.toDouble
  }
}

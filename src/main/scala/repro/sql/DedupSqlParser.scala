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
  *
  * Every column of the statement belongs to the FROM relation its
  * qualifier names — the relation's alias if it has one, else its table
  * name; an unqualified column belongs to the first relation, except in
  * the ON clause, where it takes the side its partner does not. WHERE is
  * routed conjunct by conjunct; a conjunct naming both relations, or an
  * unknown qualifier, is rejected, as are self-joins and SELECT-list
  * aliases.
  */
object DedupSqlParser extends PredicateHelper {

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

  /** A FROM-clause relation: the registered table and the name its
    * columns are qualified by (the alias, else the table name).
    */
  private final case class Relation(table: String, name: String)

  /** Walk a parsed (unresolved) logical plan into a query spec. */
  def fromPlan(plan: LogicalPlan): Parsed = {
    val (projExprs, belowProject) = plan match {
      case Project(exprs, child) => (exprs, child)
      case other                 => (Nil, other)
    }
    val (conjuncts, from) = belowProject match {
      case Filter(cond, child) => (splitConjunctivePredicates(cond), child)
      case other               => (Nil, other)
    }
    val (rels, on) = from match {
      case Join(l, r, Inner, Some(cond), _) => (Seq(relation(l), relation(r)), Some(cond))
      case rel                              => (Seq(relation(rel)), None)
    }
    // the Link Index, and the answer's column prefix, are per table
    require(rels.map(_.table.toLowerCase).distinct.size == rels.size,
      s"self-joins are not supported: FROM names table '${rels.head.table}' twice")

    // The one rule: the index in `rels` of the relation a column's
    // qualifier names; None when the column is unqualified.
    def relationOf(a: UnresolvedAttribute): Option[Int] =
      a.nameParts.init.lastOption.map { q =>
        val i = rels.indexWhere(_.name.equalsIgnoreCase(q))
        require(i >= 0, s"unknown qualifier '$q' in $a (FROM names ${rels.map(_.name).mkString(", ")})")
        i
      }

    val routed = conjuncts.map { c =>
      c.collect { case a: UnresolvedAttribute => relationOf(a).getOrElse(0) }.distinct match {
        case Seq(i) => (i, c)
        case Seq()  => (0, c)
        case _      => throw new IllegalArgumentException(s"WHERE term names both tables: $c")
      }
    }
    val preds = rels.indices.map { i =>
      routed.collect { case (`i`, c) => toPred(c) }.reduceOption(AndPred).getOrElse(TruePred)
    }

    // output columns are prefixed with the table name, not the alias
    def column(a: UnresolvedAttribute) = (rels(relationOf(a).getOrElse(0)).table, attr(a))
    val projection = projExprs.flatMap {
      case UnresolvedStar(_)                => Nil
      case a: UnresolvedAttribute           => Seq(column(a))
      case other =>
        throw new IllegalArgumentException(s"unsupported projection: $other")
    }

    on match {
      case None =>
        ParsedSelect(SelectSpec(rels.head.table, preds.head, projection.map(_._2)))
      case Some(cond @ EqualTo(a: UnresolvedAttribute, b: UnresolvedAttribute)) =>
        val ia = relationOf(a).getOrElse(1 - relationOf(b).getOrElse(1))
        val ib = relationOf(b).getOrElse(1 - ia)
        require(ia != ib, s"join condition must compare the two tables: $cond")
        val (lAttr, rAttr) = if (ia == 0) (attr(a), attr(b)) else (attr(b), attr(a))
        ParsedJoin(JoinSpec(SelectSpec(rels(0).table, preds(0)), SelectSpec(rels(1).table, preds(1)),
          lAttr, rAttr, projection))
      case Some(other) =>
        throw new IllegalArgumentException(s"unsupported join condition: $other")
    }
  }

  private def relation(plan: LogicalPlan): Relation = plan match {
    case r: UnresolvedRelation => Relation(r.multipartIdentifier.last, r.multipartIdentifier.last)
    case s @ SubqueryAlias(_, r: UnresolvedRelation) => Relation(r.multipartIdentifier.last, s.alias)
    case other =>
      throw new IllegalArgumentException(s"unsupported FROM clause element: $other")
  }

  /** Convert a parsed WHERE expression into the predicate algebra over
    * bare column names (qualifiers are resolved by the caller).
    */
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

  private def attr(a: UnresolvedAttribute): String = a.nameParts.last
  private def num(v: Any): Double =
    s"$v".toDoubleOption.getOrElse(throw new IllegalArgumentException(s"not a number: '$v'"))
}

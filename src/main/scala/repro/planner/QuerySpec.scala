package repro.planner

import org.apache.spark.sql.{Column, functions => F}
import repro.core.Tokenizer

/** Predicate algebra of a Dedupe query's WHERE clause (paper §5 supports
  * conjunctive/disjunctive conditions of the form `E.x op constant` and
  * equi-joins). The cost-based planner derives blocking keys from the
  * string literals of `=` and `IN` (paper §7.2.1.i, see
  * [[Statistics.selectedSet]]); for the other predicates (ranges, MOD) the
  * estimator evaluates the filter.
  */
sealed trait Pred {
  def toColumn: Column
}

object Pred {
  /** A numeric constant of a predicate, passed to Spark's generated code
    * as a value. A `lit` of a number is inlined into the generated source,
    * so statements that differ only in such a constant would each compile
    * and cache their own classes (strings are passed as values already).
    */
  private[planner] def param(v: Double): Column = F.udf(() => v).apply()
  private[planner] def param(v: Long): Column   = F.udf(() => v).apply()
}

case object TruePred extends Pred {
  def toColumn: Column = F.lit(true)
}

/** `attr = 'value'` */
final case class EqPred(attr: String, value: String) extends Pred {
  def toColumn: Column = F.col(attr).cast("string") === value
}

/** `attr IN ('v1', 'v2', …)` */
final case class InPred(attr: String, values: Seq[String]) extends Pred {
  def toColumn: Column = F.col(attr).cast("string").isin(values: _*)
}

/** Numeric comparison `attr op value`; op ∈ {<, <=, >, >=}. Uses
  * `try_cast` so corrupted (non-numeric) duplicate values simply fail the
  * filter instead of failing the query under ANSI mode.
  */
final case class CmpPred(attr: String, op: String, value: Double) extends Pred {
  def toColumn: Column = {
    val c = F.expr(s"try_cast(`$attr` AS DOUBLE)")
    op match {
      case "<"  => c < Pred.param(value)
      case "<=" => c <= Pred.param(value)
      case ">"  => c > Pred.param(value)
      case ">=" => c >= Pred.param(value)
      case _    => throw new IllegalArgumentException(s"unsupported op $op")
    }
  }
}

/** Inclusive numeric range `lo <= attr <= hi` (try_cast: see CmpPred). */
final case class RangePred(attr: String, lo: Double, hi: Double) extends Pred {
  def toColumn: Column =
    F.expr(s"try_cast(`$attr` AS DOUBLE)").between(Pred.param(lo), Pred.param(hi))
}

/** `MOD(eid, m) < k` — the paper's Q9 random-selection query. */
final case class ModLtPred(m: Long, k: Long) extends Pred {
  def toColumn: Column = F.pmod(F.col(Tokenizer.EidCol), Pred.param(m)) < Pred.param(k)
}

final case class AndPred(l: Pred, r: Pred) extends Pred {
  def toColumn: Column = l.toColumn && r.toColumn
}

final case class OrPred(l: Pred, r: Pred) extends Pred {
  def toColumn: Column = l.toColumn || r.toColumn
}

/** A single-table SP dedupe query: σ_pred(table) with a projection over
  * the grouped output (empty projection = all attributes).
  */
final case class SelectSpec(table: String, pred: Pred = TruePred, projection: Seq[String] = Nil)

/** A two-table SPJ dedupe query: σ(left) ⋈_{leftAttr = rightAttr} σ(right).
  * Projection entries are (table, attribute) pairs over the grouped join
  * output (empty = all).
  */
final case class JoinSpec(
    left: SelectSpec,
    right: SelectSpec,
    leftAttr: String,
    rightAttr: String,
    projection: Seq[(String, String)] = Nil,
)

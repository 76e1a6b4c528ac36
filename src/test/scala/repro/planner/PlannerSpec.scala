package repro.planner

import repro.SparkSpec
import repro.core._
import repro.data.{Datasets, MotivatingExample}

/** Cost-based operator placement (paper §7.2.1.ii, Table 5). */
class PlannerSpec extends SparkSpec {

  test("planJoin deduplicates first the branch with fewer estimated comparisons") {
    val ppl = Datasets.ppl(spark, 1000).toContext
    val oao = Datasets.oao(spark, 300).toContext
    val plan = Planner.planJoin(ppl, TruePred, oao, TruePred)
    assert(plan.estLeftComparisons > plan.estRightComparisons)
    assert(plan.dedupFirst == RightSide)
    assert(plan.joinType == "DIRTY-LEFT")
  }

  test("planJoin prefers the filtered branch when the filter is selective") {
    val ppl = Datasets.ppl(spark, 1000).toContext
    val oao = Datasets.oao(spark, 300).toContext
    // a tiny slice of PPL is cheaper to clean than all of OAO
    val plan = Planner.planJoin(ppl, RangePred("byear", 1900, 1901), oao, TruePred)
    assert(plan.estLeftComparisons < plan.estRightComparisons)
    assert(plan.dedupFirst == LeftSide && plan.joinType == "DIRTY-RIGHT")
  }

  test("motivating example: cleaning V first wins (paper Table 5)") {
    val p = TableContext("pPlan", MotivatingExample.publications(spark))
    val v = TableContext("vPlan", MotivatingExample.venues(spark))
    val plan = Planner.planJoin(p, EqPred("venue", "EDBT"), v, TruePred)
    assert(plan.estLeftComparisons == 26 && plan.estRightComparisons == 13)
    assert(plan.dedupFirst == RightSide && plan.joinType == "DIRTY-LEFT")
  }

  test("ties break to the left branch") {
    import spark.implicits._
    val empty = Seq.empty[(Long, String)].toDF("eid", "v")
    val a = TableContext("tieA", empty)
    val b = TableContext("tieB", empty)
    val plan = Planner.planJoin(a, TruePred, b, TruePred)
    assert(plan.dedupFirst == LeftSide && plan.joinType == "DIRTY-RIGHT")
  }
}

package repro.bench

import repro.SparkSpec
import repro.benchrun.Experiments

/** Fig. 9 — QueryER vs the Batch Approach over the SP sweep Q1–Q5. */
class Fig9QueryErVsBaBench extends SparkSpec {
  test("Fig 9: QueryER outperforms BA, converging as selectivity grows") {
    val rows = Experiments.run(spark, "fig9")
    val m = rows.map(_.toMap)
    // QueryER never executes more comparisons than the batch approach
    for (r <- m)
      assert(r("QueryER Comp.").toLong <= r("BA Comp.").toLong,
        s"QueryER must not out-compare BA: $r")
    // comparisons grow with selectivity within each dataset
    for (ds <- m.map(_("E")).distinct) {
      val comps = m.filter(_("E") == ds).map(_("QueryER Comp.").toLong)
      assert(comps.head <= comps.last, s"Q1 should compare less than Q5 on $ds")
    }
  }
}

/** Fig. 10 — scalability of Q9 over growing |E|. */
class Fig10ScalabilityBench extends SparkSpec {
  test("Fig 10: Q9 scales sub-linearly in |E|") {
    val rows = Experiments.run(spark, "fig10")
    val m = rows.map(_.toMap)
    for (family <- Seq("PPL", "OAGP")) {
      val fam = m.filter(_("E").startsWith(family))
      val first = fam.head("Comp.").toLong.max(1)
      val last  = fam.last("Comp.").toLong
      // |E| grows 10×; sub-linearity = comparisons grow well below 100×
      // (quadratic would be 100×)
      assert(last < first * 100, s"$family comparisons blew up: $first → $last")
    }
  }
}

/** Fig. 11 — the Link Index under consecutive overlapping queries. */
class Fig11LinkIndexBench extends SparkSpec {
  test("Fig 11: with LI, consecutive overlapping queries get cheaper") {
    val rows = Experiments.run(spark, "fig11")
    val m = rows.map(_.toMap)
    // with the LI, later queries compare only the delta; without it,
    // every query pays for its full QE
    val withComp    = m.map(_("With LI Comp.").toLong)
    val withoutComp = m.map(_("Without LI Comp.").toLong)
    assert(withComp.last < withoutComp.last,
      s"LI should cut the last query's comparisons: $withComp vs $withoutComp")
    assert(withComp.tail.zip(withoutComp.tail).forall { case (w, wo) => w <= wo })
  }
}

/** Fig. 12 — AES vs NES vs BA on the SPJ queries Q6/Q7. */
class Fig12PlannerBench extends SparkSpec {
  test("Fig 12: the cost-based planner wins on SPJ queries") {
    val rows = Experiments.run(spark, "fig12")
    val m = rows.map(_.toMap)
    for (r <- m) {
      assert(r("AES Comp.").toLong <= r("NES Comp.").toLong,
        s"AES must not out-compare NES: $r")
      assert(r("NES Comp.").toLong <= r("BA Comp.").toLong,
        s"NES must not out-compare BA: $r")
    }
  }
}

/** Fig. 13 — AES vs NES scalability on Q8a/b. */
class Fig13ScalabilityJoinBench extends SparkSpec {
  test("Fig 13: AES vs NES scale sub-linearly on growing joins") {
    val rows = Experiments.run(spark, "fig13")
    val m = rows.map(_.toMap)
    for (r <- m)
      assert(r("AES Comp.").toLong <= r("NES Comp.").toLong, s"AES regressed: $r")
    for (q <- Seq("Q8a", "Q8b")) {
      val fam   = m.filter(_("Query") == q)
      val first = fam.head("AES Comp.").toLong.max(1)
      val last  = fam.last("AES Comp.").toLong
      assert(last < first * 100, s"$q AES comparisons blew up: $first → $last")
    }
  }
}

package repro.planner

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.functions._
import repro.{JobCounter, Oracle, SparkSpec}
import repro.core._
import repro.benchrun.Experiments
import repro.data.{Datasets, MotivatingExample, Workload}

/** Query Executor (paper §7.2.2): SP and SPJ dedupe queries, the batch
  * baseline, and DuckDB-oracle checks of the relational semantics.
  */
class ExecutorSpec extends SparkSpec {

  private val cfg = DedupConfig(useLinkIndex = false)

  private def pCtx = TableContext("pExec", MotivatingExample.publications(spark),
    Some(MotivatingExample.publicationsTruth(spark)))
  private def vCtx = TableContext("vExec", MotivatingExample.venues(spark),
    Some(MotivatingExample.venuesTruth(spark)))

  // ---------------------------------------------------------------- SP

  test("runSelect returns grouped results for the motivating selection") {
    val (out, stats) = Executor.runSelect(pCtx, SelectSpec("p", EqPred("venue", "EDBT")), cfg)
    assert(out.count() == 2)
    assert(stats.qeSize == 3 && stats.drSize == 5)
  }

  test("a repeated SP statement compiles no new classes: its generated code fits Spark's codegen cache") {
    // CodegenMetrics counts the compilations, i.e. the cache misses, of
    // every generated class; Spark keeps 100 classes in 4 LRU segments
    val ctx  = Datasets.dsd(spark).toContext
    val spec = SelectSpec("dsd", Workload.sp("dsd", 1))
    def compiledByOneRun(): Long = {
      val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      Executor.runSelect(ctx, spec, cfg)._1.collect()
      CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before
    }
    try {
      val counts = Seq.fill(4)(compiledByOneRun())
      assert(counts.last <= 5, s"classes compiled per run: ${counts.mkString(", ")}")
    } finally ctx.unpersistAll()
  }

  test("runSelect launches 3 Spark jobs: the filter, Edge Pruning and Comparison-Execution") {
    val ctx   = Experiments.warm(pCtx)
    val sites = JobCounter.sites(spark, "runSelect-jobs") {
      Executor.runSelect(ctx, SelectSpec("p", EqPred("venue", "EDBT")), cfg)._1.collect()
    }
    assert(sites.size == 3, sites.mkString("; "))
  }

  test("runSelect respects the projection") {
    val (out, _) = Executor.runSelect(pCtx,
      SelectSpec("p", EqPred("venue", "EDBT"), Seq("title", "year")), cfg)
    assert(out.columns.toSeq == Seq("title", "year"))
  }

  test("runSelect on duplicate-free data equals plain SQL (DuckDB oracle)") {
    import spark.implicits._
    val clean = Seq(
      (1L, "alpha report", "2001"),
      (2L, "beta survey", "2002"),
      (3L, "gamma study", "2001"),
    ).toDF("eid", "title", "year")
    val ctx = TableContext("cleanExec", clean)
    val (out, _) = Executor.runSelect(ctx, SelectSpec("c", EqPred("year", "2001"), Seq("title", "year")), cfg)
    Oracle.assertEquivalent(
      out,
      "SELECT title, year FROM cleanexec WHERE year = '2001'",
      "cleanexec" -> clean)
  }

  test("runSelect with TruePred deduplicates the whole table") {
    val (out, stats) = Executor.runSelect(pCtx, SelectSpec("p", TruePred), cfg)
    assert(stats.qeSize == 8)
    assert(out.count() < 8) // duplicates grouped
  }

  test("runBatchSelect equals runSelect on the motivating selection (DQ ≡ BA)") {
    val spec = SelectSpec("p", EqPred("venue", "EDBT"))
    val (dq, _) = Executor.runSelect(pCtx, spec, cfg)
    val (ba, baStats) = Executor.runBatchSelect(pCtx, spec, cfg)
    val dqMembers = dq.select("members").collect().map(_.getString(0)).toSet
    val baMembers = ba.select("members").collect().map(_.getString(0)).toSet
    assert(dqMembers == baMembers)
    assert(baStats.comparisons >= 0)
  }

  test("runSelect stage times cover the total") {
    val (_, stats) = Executor.runSelect(pCtx, SelectSpec("p", EqPred("venue", "EDBT")), cfg)
    assert(stats.times.totalMs <= stats.totalMs + 5)
  }

  // ---------------------------------------------------------------- SPJ

  private def joinSpec = JoinSpec(
    SelectSpec("p", EqPred("venue", "EDBT")),
    SelectSpec("v", TruePred),
    "venue", "title")

  test("runJoin (advanced) reproduces the motivating example join") {
    val (out, stats) = Executor.runJoin(pCtx, vCtx, joinSpec, AdvancedPlanner, cfg)
    assert(out.count() == 2)
    assert(stats.plan.isDefined)
  }

  test("runJoin (naive) produces the same result rows as advanced") {
    val (adv, _) = Executor.runJoin(pCtx, vCtx, joinSpec, AdvancedPlanner, cfg)
    val (nai, _) = Executor.runJoin(pCtx, vCtx, joinSpec, NaivePlanner, cfg)
    def key(df: org.apache.spark.sql.DataFrame) =
      df.select("pExec_members", "vExec_members").collect()
        .map(r => (r.getString(0), r.getString(1))).toSet
    assert(key(adv) == key(nai))
  }

  test("advanced planner needs no more comparisons than naive") {
    val (_, adv) = Executor.runJoin(pCtx, vCtx, joinSpec, AdvancedPlanner, cfg)
    val (_, nai) = Executor.runJoin(pCtx, vCtx, joinSpec, NaivePlanner, cfg)
    info(s"comparisons: advanced=${adv.comparisons} naive=${nai.comparisons}")
    assert(adv.comparisons <= nai.comparisons)
  }

  test("runBatchJoin returns the same join groups (DQ ≡ BA for SPJ)") {
    val (dq, _) = Executor.runJoin(pCtx, vCtx, joinSpec, AdvancedPlanner, cfg)
    val (ba, _) = Executor.runBatchJoin(pCtx, vCtx, joinSpec, cfg)
    def key(df: org.apache.spark.sql.DataFrame) =
      df.select("pExec_members", "vExec_members").collect()
        .map(r => (r.getString(0), r.getString(1))).toSet
    assert(key(dq) == key(ba))
  }

  test("a repeated join statement compiles no new classes: its generated code fits Spark's codegen cache") {
    // the join twin of the SP test above: the planner's estimate, both
    // Block-Joins and Deduplicate-Join run on the driver, so a repeated
    // statement plans no join and compiles nothing new
    val ppl  = Datasets.ppl(spark, 1000).toContext
    val oao  = Datasets.oao(spark, 300).toContext
    val spec = JoinSpec(SelectSpec("ppl", Workload.rangeFor("ppl", 0.3)), SelectSpec("oao", TruePred),
      "org", "orgname")
    def compiledByOneRun(): Long = {
      val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      Executor.runJoin(ppl, oao, spec, AdvancedPlanner, cfg)._1.collect()
      CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before
    }
    try {
      val counts = Seq.fill(4)(compiledByOneRun())
      assert(counts.last <= 5, s"classes compiled per run: ${counts.mkString(", ")}")
    } finally { ppl.unpersistAll(); oao.unpersistAll() }
  }

  test("an AES join over a range predicate launches at most 8 Spark jobs") {
    val ppl  = Experiments.warm(Datasets.ppl(spark, 500).toContext)
    val oao  = Experiments.warm(Datasets.oao(spark, 300).toContext)
    val spec = JoinSpec(SelectSpec("ppl", RangePred("byear", 1900, 1919)), SelectSpec("oao", TruePred),
      "org", "orgname")
    try {
      val sites = JobCounter.sites(spark, "runJoin-jobs") {
        Executor.runJoin(ppl, oao, spec, AdvancedPlanner, cfg)._1.collect()
      }
      info(sites.mkString("; "))
      assert(sites.size <= 8, sites.mkString("; "))
    } finally { ppl.unpersistAll(); oao.unpersistAll() }
  }

  test("runJoin projection selects prefixed columns") {
    val spec = joinSpec.copy(projection = Seq(("pExec", "title"), ("pExec", "year"), ("vExec", "rank")))
    val (out, _) = Executor.runJoin(pCtx, vCtx, spec, AdvancedPlanner, cfg)
    assert(out.columns.toSeq == Seq("pExec_title", "pExec_year", "vExec_rank"))
  }

  test("join on duplicate-free tables equals plain SQL join (DuckDB oracle)") {
    import spark.implicits._
    val l = Seq((1L, "k1", "a"), (2L, "k2", "b")).toDF("eid", "k", "lv")
    val r = Seq((10L, "k1", "x"), (11L, "k3", "y")).toDF("eid", "k", "rv")
    val lCtx = TableContext("lclean", l)
    val rCtx = TableContext("rclean", r)
    val (out, _) = Executor.runJoin(lCtx, rCtx,
      JoinSpec(SelectSpec("l", TruePred), SelectSpec("r", TruePred), "k", "k",
        Seq(("lclean", "lv"), ("rclean", "rv"))),
      AdvancedPlanner, cfg)
    Oracle.assertEquivalent(
      out.withColumnRenamed("lclean_lv", "lv").withColumnRenamed("rclean_rv", "rv"),
      "SELECT l.lv AS lv, r.rv AS rv FROM lt l JOIN rt r ON l.k = r.k",
      "lt" -> l, "rt" -> r)
  }

  test("no query leaves storage cached") {
    val (p, v) = (Experiments.warm(pCtx), Experiments.warm(vCtx))
    def persisted = spark.sparkContext.getPersistentRDDs.keySet
    val before = persisted
    Executor.runSelect(p, SelectSpec("p", EqPred("venue", "EDBT")), cfg)
    Executor.runJoin(p, v, joinSpec, AdvancedPlanner, cfg)
    Executor.runBatchSelect(p, SelectSpec("p", EqPred("venue", "EDBT")), cfg)
    Executor.runBatchJoin(p, v, joinSpec, cfg)
    assert(persisted == before)
  }

  test("runJoin on generated ppl⋈oao resolves duplicates on both sides") {
    val ppl = Datasets.ppl(spark, 500).toContext
    val oao = Datasets.oao(spark, 300).toContext
    val (out, stats) = Executor.runJoin(ppl, oao,
      JoinSpec(SelectSpec("ppl", RangePred("byear", 1900, 1919)), SelectSpec("oao", TruePred),
        "org", "orgname"),
      AdvancedPlanner, cfg)
    assert(out.count() > 0)
    assert(stats.comparisons > 0)
  }
}

package perfbench

import java.nio.file.Paths

import org.apache.spark.sql.{Row, SparkSession}
import repro.core.{MbConfig, TableContext}
import repro.planner.{AdvancedPlanner, ExecStats}
import repro.sql.QueryEr

import scala.collection.mutable
import scala.util.{Failure, Success, Try}

/** QueryER benchmark: drives `SELECT DEDUP` statements through
  * `QueryEr.sqlWithStats` from one client thread in a closed loop, checks
  * every answer, and prints the end-to-end metrics (untraced run) or the
  * per-layer metrics (`--trace 1`). The last stdout line is one JSON
  * object: `{"correct", "attempted", "failed", "metrics"}`. At seed 0 the
  * comparisons and group sets must also equal the recorded baseline.
  *
  * {{{
  * Bench --workload sp-dsd|spj-oagp|li-oagp [--seed 0] [--seconds 5]
  *       [--trace 0|1] [--out DIR] [--commit SHA]
  * }}}
  */
object Bench {

  final case class Opts(
      workload: String = "",
      seed: Long = 0,
      seconds: Int = 5,
      trace: Boolean = false,
      out: String = ".bench_build/perfbench",
      commit: String = "unknown",
  )

  /** Set-up repetitions per run; `setup_s` takes their median. */
  val SetupReps = 2

  /** Per-statement comparisons at seed 0, recorded on the commit that
    * introduced the benchmark (see perfbench/README.md), as are the
    * group sets and job counts below.
    */
  val BaselineComparisons: Map[String, Seq[(String, Long)]] = Map(
    "sp-dsd"   -> Seq("Q1" -> 2741L, "Q2" -> 6231L, "Q3" -> 10149L, "Q4" -> 13039L, "Q5" -> 16935L,
                      "Q10" -> 10594L, "Q11" -> 4047L, "Q12" -> 5511L, "Q13" -> 6676L),
    "li-oagp"  -> Seq("Q10" -> 21330L, "Q11" -> 7917L, "Q12" -> 9509L, "Q13" -> 12018L),
    "spj-oagp" -> Seq("Q6b" -> 5155L),
  )
  /** Group-set fingerprints (`Verdict.fingerprint`) of the answers at seed 0. */
  val BaselineGroups: Map[String, Seq[(String, Long)]] = Map(
    "sp-dsd"   -> Seq("Q1" -> 1009608123L, "Q2" -> 250895318L, "Q3" -> 409260292L,
                      "Q4" -> -822481677L, "Q5" -> -297216994L, "Q10" -> -638480793L,
                      "Q11" -> -822481677L, "Q12" -> -64080006L, "Q13" -> 319150932L),
    "li-oagp"  -> Seq("Q10" -> 778741039L, "Q11" -> 1419735474L, "Q12" -> 984815783L,
                      "Q13" -> -1335219842L),
    "spj-oagp" -> Seq("Q6b" -> 1150566781L),
  )
  /** Jobs per `sp-dsd` statement inside `sqlWithStats`. Reported beside
    * the count of the run, not enforced: fewer jobs is what job fusion is for.
    */
  val BaselineDsdJobs = 8L

  def main(args: Array[String]): Unit = {
    val o = parse(args.toList, Opts())
    require(Workloads.Names.contains(o.workload),
      s"--workload must be one of ${Workloads.Names.mkString(", ")}")
    val spark = session(o)
    val code  = try new Bench(spark, o).run() finally spark.stop()
    sys.exit(code)
  }

  @annotation.tailrec
  private def parse(args: List[String], o: Opts): Opts = args match {
    case "--workload" :: v :: t    => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t        => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t     => parse(t, o.copy(seconds = v.toInt))
    case "--trace" :: v :: t       => parse(t, o.copy(trace = v == "1"))
    case "--out" :: v :: t         => parse(t, o.copy(out = v))
    case "--commit" :: v :: t      => parse(t, o.copy(commit = v))
    case Nil                       => o
    case other :: _                => throw new IllegalArgumentException(s"unknown argument: $other")
  }

  private def session(o: Opts): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    val out   = Paths.get(o.out).toAbsolutePath
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      // one shuffle partition per core: 16 make every statement ~30%
      // slower on 4 cores, and a run no longer fits the time budget
      .config("spark.sql.shuffle.partitions", cores)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      // Off, unlike Spark's default: with it a run does not fit the
      // benchmark's time budget. Job counts are therefore those of
      // non-adaptive plans (8 per DSD statement, not 29; see README.md).
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    spark
  }

  final case class Setup(totalS: Double, stepS: Map[String, Double])
  final case class Pass(execs: Seq[Exec], wallS: Double, retainedB: Long)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** One statement execution. `error` is set when the statement threw. */
final case class Exec(
    stmt: Statement,
    id: String,
    rows: Array[Row],
    comparisons: Long,
    latencyS: Double,
    error: Option[String],
    stageMs: String = "",
)

final class Bench(spark: SparkSession, o: Bench.Opts) {
  import Bench._

  private val sc       = spark.sparkContext
  private val counters = new SparkCounters
  sc.addSparkListener(counters)
  private val tracer   = new Tracer
  private def say(line: String): Unit = println(line)

  private def storageBytes: Long =
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  // ------------------------------------------------------------ set-up

  private val IndexSteps = Seq("rows", "tbi", "block_sizes", "retained_tbi", "value_freq")

  /** Register every table and force its once-off indices, timing each. */
  private def setUp(wl: WorkloadDef): (Seq[TableContext], Setup) = {
    val steps = mutable.LinkedHashMap(IndexSteps.map(_ -> 0.0): _*)
    def step[T](name: String)(f: => T): T = {
      val t0 = System.nanoTime()
      val r  = tracer.span(s"index.$name")(f)
      steps(name) += seconds(t0)
      r
    }
    val t0 = System.nanoTime()
    val ctxs = tracer.span("setup") {
      wl.tables.map { t =>
        val ctx = QueryEr.register(spark, t.name, t.df)
        step("rows")(ctx.rows)
        step("tbi")(ctx.tbi)
        step("block_sizes")(ctx.blockSizes)
        step("retained_tbi")(ctx.retainedTbi(MbConfig.All))
        step("value_freq")(ctx.valueFreq)
        ctx
      }
    }
    (ctxs, Setup(seconds(t0), steps.toMap))
  }

  private def tearDown(ctxs: Seq[TableContext]): Unit = ctxs.foreach { c =>
    c.retainedTbi(MbConfig.All).unpersist()
    c.unpersistAll()
  }

  // ------------------------------------------------------------ statements

  private def execute(st: Statement, id: String): Exec = {
    val t0 = System.nanoTime()
    Try {
      sc.setJobGroup(id, st.label, interruptOnCancel = false)
      val (df, stats) = QueryEr.sqlWithStats(spark, st.sql, AdvancedPlanner, st.cfg)
      sc.setJobGroup(s"$id/collect", st.label, interruptOnCancel = false)
      (df.collect(), stats)
    } match {
      case Success((rows, stats: ExecStats)) =>
        sc.clearJobGroup()
        val t = stats.times
        Exec(st, id, rows, stats.comparisons, seconds(t0), None,
          s"${t.blockingMs}/${t.blockJoinMs}/${t.metaBlockingMs}/${t.comparisonMs}/${t.groupMs}/${t.otherMs}")
      case Failure(e) =>
        sc.clearJobGroup()
        Exec(st, id, Array.empty, -1, seconds(t0), Some(e.toString))
    }
  }

  private def pass(wl: WorkloadDef, ctxs: Seq[TableContext], n: Int): Pass = {
    if (wl.resetLinkIndex) ctxs.foreach(_.resetLinkIndex())
    val before = storageBytes
    val t0     = System.nanoTime()
    val execs  = wl.statements.map(st => execute(st, s"p$n-${st.label}"))
    val wallS  = seconds(t0)
    Pass(execs, wallS, storageBytes - before)
  }

  // ------------------------------------------------------------ checks

  private val referenceMemo = mutable.HashMap.empty[String, Either[Set[Long], Seq[(Long, Long)]]]
  private val firstSeen     = mutable.HashMap.empty[String, (Long, Int)]

  /** Check one execution: the answer check, and identical comparisons
    * and group sets to every earlier execution of the statement.
    */
  private def check(e: Exec, wl: WorkloadDef): Verdict = e.error match {
    case Some(err) => Verdict(Seq(s"threw: $err"), 0, 0, Quality.Zero)
    case None =>
      sc.setJobGroup("check", "answer check", interruptOnCancel = false)
      val ref = referenceMemo.getOrElseUpdate(e.stmt.label, {
        val rows = spark.sql(e.stmt.reference).collect()
        if (e.stmt.isJoin) Right(rows.toSeq.map(r => (r.getLong(0), r.getLong(1))))
        else Left(rows.map(_.getLong(0)).toSet)
      })
      sc.clearJobGroup()
      val v = ref match {
        case Left(sel)    => Checks.select(e.rows, sel, wl.tables.head)
        case Right(pairs) => Checks.join(e.rows, pairs, wl.tables(0), wl.tables(1))
      }
      val (comps, fp) = firstSeen.getOrElseUpdate(e.stmt.label, (e.comparisons, v.fingerprint))
      val drift =
        (if (comps != e.comparisons) Seq(s"comparisons ${e.comparisons} != $comps of the first execution") else Nil) ++
        (if (fp != v.fingerprint) Seq("group set differs from the first execution") else Nil)
      v.copy(errors = v.errors ++ drift)
  }

  // ------------------------------------------------------------ run

  def run(): Int = {
    val t0 = System.nanoTime()
    val phases = mutable.LinkedHashMap.empty[String, Double]
    def phase(name: String): Unit = phases(name) = seconds(t0) - phases.values.sum
    val wl = Workloads.build(spark, o.workload, o.seed)
    phase("generate")

    var setups = Seq.empty[Setup]
    var ctxs   = Seq.empty[TableContext]
    for (_ <- 1 to SetupReps) {
      tearDown(ctxs)
      val (c, s) = setUp(wl)
      ctxs = c
      setups :+= s
    }
    val indexB = storageBytes
    phase("set-up")
    val warm   = execute(wl.warmup, "warmup")
    if (wl.resetLinkIndex) ctxs.foreach(_.resetLinkIndex())
    val setupS = median(setups.map(_.totalS)) + warm.latencyS

    phase("warm-up")
    val tm     = System.nanoTime()
    val passes = mutable.ArrayBuffer(pass(wl, ctxs, 0))
    while (seconds(tm) < o.seconds) passes += pass(wl, ctxs, passes.size)
    counters.drain()
    phase("passes")
    val replay = if (o.trace) Some(tracedPass(wl, ctxs)) else None
    if (o.trace) phase("traced pass")

    val execs    = (warm +: passes.flatMap(_.execs).toSeq) ++ replay.map(_._1).getOrElse(Nil)
    val mismatch = replay.map(_._2.mismatches.toSeq).getOrElse(Nil)
    val verdicts = execs.map { e =>
      val v = check(e, wl)
      e.id -> v.copy(errors = v.errors ++ mismatch.filter(_.startsWith(e.id + " ")))
    }.toMap
    val first    = passes.head
    val baseline = if (o.seed == 0) baselineErrors(wl, first, verdicts) else Map.empty[String, Seq[String]]
    val checked  = verdicts.map { case (id, v) => id -> v.copy(errors = v.errors ++ baseline.getOrElse(id, Nil)) }
    val failed   = execs.count(e => checked(e.id).errors.nonEmpty)

    phase("checks")
    statementTable(wl, execs, checked)
    val quality = first.execs.map(e => verdicts(e.id).quality).foldLeft(Quality.Zero)(_ + _)
    val passS   = median(passes.map(_.wallS).toSeq)
    val comps   = first.execs.map(_.comparisons).sum
    val e2e = Seq(
      ("setup_s", setupS, "s"),
      ("pass_s", passS, "s"),
      ("query_p50_s", median(passes.flatMap(_.execs.map(_.latencyS)).toSeq), "s"),
      ("comparisons", comps.toDouble, "count"),
      ("comparisons_per_s", comps / passS, "1/s"),
      ("index_mb", indexB / 1e6, "MB"),
    )
    // printed, not in the JSON line: see README.md
    val extra = Seq(
      ("pair_recall", quality.recall, "ratio"),
      ("pair_precision", quality.precision, "ratio"),
      ("failed_frac", failed.toDouble / execs.size, "ratio"),
      ("retained_kb", median(passes.map(_.retainedB / 1e3).toSeq), "KB"),
    )
    environment(wl, passes.size, setups, warm.latencyS, phases.toSeq)
    say("== end-to-end metrics ==")
    (e2e ++ extra).foreach { case (n, v, u) => say(f"$n%-24s $v%.6g $u") }

    val layer = replay.map { case (_, r, traced) => layerMetrics(wl, ctxs, setups, passes.toSeq, r, traced) }
    layer.foreach(_._2.foreach(say))

    val metrics = layer.map(_._1).getOrElse(e2e)
    println(resultJson(failed == 0, execs.size, failed, metrics))
    if (failed == 0) 0 else 1
  }

  private def statementTable(wl: WorkloadDef, execs: Seq[Exec], verdicts: Map[String, Verdict]): Unit = {
    say(s"== ${wl.name} statements (seed ${o.seed}) ==")
    say(f"${"id"}%-14s ${"latency_s"}%10s ${"comparisons"}%12s ${"jobs"}%8s ${"groups"}%7s ${"recall"}%9s ${"precision"}%9s ${"stage_ms"}%-28s check")
    say("  (jobs: in sqlWithStats + in collect; stage_ms: blocking/block-join/meta-blocking/comparison/group/other)")
    for (e <- execs) {
      val v    = verdicts(e.id)
      val jobs = s"${counters.of(e.id).jobs}+${counters.of(s"${e.id}/collect").jobs}"
      val ok   = if (v.errors.isEmpty) "ok" else "FAILED: " + v.errors.mkString("; ")
      val q    = v.quality
      val rec  = s"${q.truthFound}/${q.truthPairs}"
      val prec = s"${q.answerTrue}/${q.answerPairs}"
      say(f"${e.id}%-14s ${e.latencyS}%10.3f ${e.comparisons}%12d $jobs%8s ${v.groups}%7d $rec%9s $prec%9s ${e.stageMs}%-28s $ok")
    }
  }

  private def environment(wl: WorkloadDef, passes: Int, setups: Seq[Setup], warmS: Double,
                          phases: Seq[(String, Double)]): Unit = {
    say("== environment ==")
    say(s"workload ${wl.name}  seed ${o.seed}  commit ${o.commit}  passes $passes  run_seconds ${o.seconds}")
    say(s"nproc ${Runtime.getRuntime.availableProcessors()}  master ${sc.master}  " +
      s"shuffle_partitions ${spark.conf.get("spark.sql.shuffle.partitions")}  " +
      s"broadcast_threshold ${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")}  " +
      s"adaptive ${spark.conf.get("spark.sql.adaptive.enabled")}")
    say(f"driver_heap_mb ${Runtime.getRuntime.maxMemory / 1048576.0}%.0f  jvm ${System.getProperty("java.version")}  " +
      s"spark ${spark.version}  scala ${scala.util.Properties.versionNumberString}")
    say(s"set-up reps (s): ${setups.map(s => f"${s.totalS}%.3f").mkString(" ")}  " +
      f"warm-up ${wl.warmup.label} (s): $warmS%.3f")
    say("phases (s): " + phases.map { case (n, v) => f"$n $v%.2f" }.mkString("  "))
  }

  /** Seed 0 only: each statement of the first pass must reproduce the
    * recorded comparisons and group set. Returns the errors by execution id.
    */
  private def baselineErrors(wl: WorkloadDef, first: Pass,
                             verdicts: Map[String, Verdict]): Map[String, Seq[String]] = {
    say("== baseline counts (seed 0) ==")
    val comps  = BaselineComparisons(wl.name).toMap
    val groups = BaselineGroups(wl.name).toMap
    first.execs.map { e =>
      val label = e.stmt.label
      val fp    = verdicts(e.id).fingerprint.toLong
      say(s"$label comparisons ${e.comparisons} (baseline ${comps(label)})  " +
        s"group-set fingerprint $fp (baseline ${groups(label)})" +
        (if (wl.name == "sp-dsd") s"  jobs ${counters.of(e.id).jobs} (baseline $BaselineDsdJobs)" else ""))
      e.id -> ((if (e.comparisons != comps(label)) Seq(s"comparisons differ from the baseline ${comps(label)}") else Nil) ++
        (if (fp != groups(label)) Seq("group set differs from the baseline") else Nil))
    }.toMap
  }

  // ------------------------------------------------------------ traced run

  /** Replay one pass with spans; returns its executions, the replay and
    * the traced time per statement label.
    */
  private def tracedPass(wl: WorkloadDef, ctxs: Seq[TableContext])
      : (Seq[Exec], Replay, Map[String, Double]) = {
    if (wl.resetLinkIndex) ctxs.foreach(_.resetLinkIndex())
    val replay = new Replay(spark, wl, tracer)
    val execs = wl.statements.map { st =>
      val id = s"traced-${st.label}"
      val t0 = System.nanoTime()
      Try(replay.run(st, id)) match {
        case Success((rows, comps, ns)) => Exec(st, id, rows, comps, ns / 1e9, None)
        case Failure(e)                 => Exec(st, id, Array.empty, -1, seconds(t0), Some(e.toString))
      }
    }
    tracer.stmt = ""
    (execs, replay, execs.map(e => e.stmt.label -> e.latencyS).toMap)
  }

  private def layerMetrics(
      wl: WorkloadDef,
      ctxs: Seq[TableContext],
      setups: Seq[Setup],
      passes: Seq[Pass],
      r: Replay,
      traced: Map[String, Double],
  ): (Seq[(String, Double, String)], Seq[String]) = {
    val main = ctxs.head
    val micro = tracer.span("micro") {
      Seq(
        tracer.span("micro.similarity")(Micro.similarityPairsPerS(main, r.samplePairs)),
        tracer.span("micro.tokenizer")(Micro.tokenizerValuesPerS(main)),
        tracer.span("micro.clusters")(Micro.clusterLinksPerS(r.clusterInputs.toSeq)),
        tracer.span("micro.purge_threshold")(Micro.purgeThresholdUs(main)))
    }
    def step(n: String) = median(setups.map(_.stepS(n)))
    val first = passes.head
    val work  = first.execs.map(e => counters.of(e.id) + counters.of(s"${e.id}/collect")).reduce(_ + _)
    val nStmt = first.execs.size.toDouble
    val cores = Runtime.getRuntime.availableProcessors()
    val untraced = wl.statements.map { st =>
      st.label -> median(passes.flatMap(_.execs.filter(_.stmt.label == st.label).map(_.latencyS)))
    }.toMap
    val overheadMs = wl.statements.map(st => traced(st.label) - untraced(st.label)).sum * 1e3
    val ms = (ns: Long) => ns / 1e6
    val ratio = (a: Long, b: Long) => if (b == 0) 0.0 else a.toDouble / b

    val metrics = Seq(
      ("sql.parse_ms", ms(tracer.totalNs("sql.parse")), "ms"),
      ("index.rows_s", step("rows"), "s"),
      ("index.tbi_s", step("tbi"), "s"),
      ("index.block_sizes_s", step("block_sizes"), "s"),
      ("index.retained_tbi_s", step("retained_tbi"), "s"),
      ("index.value_freq_s", step("value_freq"), "s"),
      ("index.tbi_pairs", ctxs.map(_.tbi.count()).sum.toDouble, "count"),
      ("index.blocks", ctxs.map(_.tbiBlockCount).sum.toDouble, "count"),
      ("index.retained_pairs", ctxs.map(_.retainedTbi(MbConfig.All).count()).sum.toDouble, "count"),
      ("tokenizer.values_per_s", micro(1), "1/s"),
      ("dedup.blocking_ms", r.blockingMs.toDouble, "ms"),
      ("dedup.block_join_ms", r.blockJoinMs.toDouble, "ms"),
      ("dedup.meta_blocking_ms", r.metaBlockingMs.toDouble, "ms"),
      ("dedup.comparison_ms", r.comparisonMs.toDouble, "ms"),
      ("dedup.qe", r.qe.toDouble, "count"),
      ("dedup.unresolved", r.unresolved.toDouble, "count"),
      ("dedup.candidate_blocks", r.candidateBlocks.toDouble, "count"),
      ("dedup.comparisons", r.comparisons.toDouble, "count"),
      ("dedup.dr", r.dr.toDouble, "count"),
      ("dedup.match_ratio", ratio(r.linksFound, r.comparisons), "ratio"),
      ("mb.pairs_before_ep", r.pairsBeforeEp.toDouble, "count"),
      ("mb.pairs_after_ep", r.pairsAfterEp.toDouble, "count"),
      ("mb.ep_keep_ratio", ratio(r.pairsAfterEp, r.pairsBeforeEp), "ratio"),
      ("mb.purge_threshold_us", micro(3), "us"),
      ("similarity.pairs_per_s", micro(0), "1/s"),
      ("li.hit_rate", ratio(r.liQe - r.liUnresolved, r.liQe), "ratio"),
      ("li.links", ctxs.map(_.li.linkCount).sum.toDouble, "count"),
      ("li.closure_ms", ms(r.closureNs), "ms"),
      ("clusters.links_per_s", micro(2), "1/s"),
      ("group.ms", ms(r.groupNs), "ms"),
      ("group.clusters", r.groupClusters.toDouble, "count"),
      ("djoin.reduced_qe", r.reducedQe.toDouble, "count"),
      ("planner.plan_ms", ms(r.planNs), "ms"),
      ("planner.est_comparisons_left", r.estLeft.toDouble, "count"),
      ("planner.est_comparisons_right", r.estRight.toDouble, "count"),
      ("planner.estimate_error", median(r.estimateErrors.toSeq), "ratio"),
      ("spark.jobs", work.jobs / nStmt, "count"),
      ("spark.stages", work.stages / nStmt, "count"),
      ("spark.tasks", work.tasks / nStmt, "count"),
      ("spark.task_busy_s", work.busyMs / 1e3, "s"),
      ("spark.busy_frac", work.busyMs / 1e3 / (first.wallS * cores), "ratio"),
      ("spark.gc_s", work.gcMs / 1e3, "s"),
      ("spark.shuffle_write_mb", work.shuffleWriteB / 1e6, "MB"),
      ("spark.shuffle_read_mb", work.shuffleReadB / 1e6, "MB"),
      ("retained_kb", median(passes.map(_.retainedB / 1e3)), "KB"),
      ("trace.overhead_ms", overheadMs, "ms"),
    )

    val path = Paths.get(o.out).toAbsolutePath.resolve(s"trace-${wl.name}-seed${o.seed}.jsonl")
    tracer.write(path)
    val lines = mutable.ArrayBuffer("== per-layer metrics (traced run) ==")
    metrics.foreach { case (n, v, u) => lines += f"$n%-32s $v%.6g $u" }
    lines += f"${"djoin.dirty_side_ms"}%-32s ${ms(r.dirtySideNs)}%.6g ms"
    lines += f"${"djoin.join_ms"}%-32s ${ms(r.joinNs)}%.6g ms"
    lines += s"replay check: pairs after EP == comparisons on every statement: ${
      if (r.mismatches.isEmpty) "yes" else "NO: " + r.mismatches.mkString("; ")}"
    lines += "== span self time (ms, traced pass) =="
    tracer.selfNs.foreach { case (n, ns) => lines += f"$n%-32s ${ns / 1e6}%.3f" }
    lines += s"spans written to $path"
    (metrics, lines.toSeq)
  }

  private def resultJson(correct: Boolean, attempted: Int, failed: Int,
                         metrics: Seq[(String, Double, String)]): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "0" else v.toString
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

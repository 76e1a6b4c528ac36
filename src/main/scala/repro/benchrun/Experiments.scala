package repro.benchrun

import java.io.{File, PrintWriter}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data._
import repro.metrics.Measures
import repro.planner._
import scala.collection.immutable.ListMap

/** Reproduction experiments — one runner per paper table/figure (§9).
  * Each returns printable rows; benches and the spark-submit job share them.
  *
  * Scale note (DESIGN.md §2): all datasets are 1/100 of the paper's, so
  * our "2M" label corresponds to 20K rows etc. Absolute times differ from
  * the paper's Java-8 iterator engine; the comparisons and the relative
  * ordering of the approaches are the reproduced quantities.
  */
object Experiments {

  /** Map of our dataset rows per paper-size label. */
  val sizes: Seq[(String, Long)] =
    Datasets.SizeVariants.map { case (n, label) => (label, n) }

  /** Every experiment by name, in paper order: the title its table is
    * rendered under and its runner. `ExperimentJob <name>` and the bench
    * suites both run experiments from here.
    */
  val byName: ListMap[String, (String, SparkSession => Seq[Seq[(String, String)]])] = ListMap(
    "table5" -> ("Table 5 — Exec. Comp. based on Cleaning Order", table5 _),
    "table6" -> ("Table 6 — TT breakdown on DSD and OAP for Q5", table6 _),
    "table7" -> ("Table 7 — |E|, |L_E|, |A|, |TBI| per dataset", table7 _),
    "table8" -> ("Table 8 — M-B configurations (PPL1M / OAGP1M)", table8 _),
    "fig9"   -> ("Fig 9 — QueryER vs BA (TT and comparisons, Q1–Q5)", fig9 _),
    "fig10"  -> ("Fig 10 — Q9 over PPL200K–2M and OAGP200K–2M", fig10 _),
    "fig11"  -> ("Fig 11 — Q10–Q13 with and without LI (OAGP2M)", fig11 _),
    "fig12"  -> ("Fig 12 — AES vs NES vs BA (Q6a/b, Q7a/b)", fig12 _),
    "fig13"  -> ("Fig 13 — Q8a/b over growing PPL/OAGP", fig13 _),
  )

  /** Run the named experiment, save its rendered table to
    * `bench_results/<name>.txt` and return its rows.
    */
  def run(spark: SparkSession, name: String): Seq[Seq[(String, String)]] = {
    val (title, runner) = byName(name)
    val rows = runner(spark)
    save(name, render(title, rows))
    rows
  }

  // ------------------------------------------------------------ rendering

  /** Render rows (ordered key→value lists) as an aligned ASCII table. */
  private def render(title: String, rows: Seq[Seq[(String, String)]]): String = {
    if (rows.isEmpty) return s"== $title ==\n(no rows)\n"
    val header = rows.head.map(_._1)
    val table  = header +: rows.map(_.map(_._2))
    val widths = header.indices.map(i => table.map(_(i).length).max)
    val sb = new StringBuilder(s"== $title ==\n")
    for ((r, idx) <- table.zipWithIndex) {
      sb.append(r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
        .append('\n')
      if (idx == 0) sb.append(widths.map("-" * _).mkString("  ")).append('\n')
    }
    sb.toString
  }

  /** Persist rendered output for EXPERIMENTS.md assembly. */
  private def save(name: String, text: String): Unit = {
    val dir = new File("bench_results"); dir.mkdirs()
    val pw  = new PrintWriter(new File(dir, s"$name.txt"), "UTF-8")
    try pw.write(text) finally pw.close()
    println(text)
  }

  private def pct(part: Long, total: Long): String =
    if (total == 0) "0%" else f"${100.0 * part / total}%.0f%%"

  private val cfgNoLi = DedupConfig(useLinkIndex = false)

  /** Force the once-off per-table initialisation (cached rows, TBI,
    * refined TBI and its driver-side block index, value frequencies,
    * driver-side profiles) outside the measured query time —
    * the paper likewise builds its indices at data-loading time (§3).
    */
  def warm(ctx: TableContext, mb: MbConfig = MbConfig.All): TableContext = {
    ctx.rows; ctx.tbi; ctx.blockSizes; ctx.retainedTbi(mb); ctx.blockIndex(mb); ctx.valueFreq; ctx.size
    // one small untimed dedup triggers codegen/JIT of the whole pipeline
    Deduplicate.run(ctx, ctx.profiles.keySet.take(32).toSet, DedupConfig(mb = mb, useLinkIndex = false))
    ctx
  }

  // ------------------------------------------------------------ Table 5

  /** Table 5: executed comparisons of the motivating-example SPJ query by
    * cleaning order (paper: V first → 15 total, P first → 18 total).
    */
  def table5(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val p = TableContext("P", MotivatingExample.publications(spark),
      Some(MotivatingExample.publicationsTruth(spark)))
    val v = TableContext("V", MotivatingExample.venues(spark),
      Some(MotivatingExample.venuesTruth(spark)))
    val spec = JoinSpec(
      SelectSpec("P", EqPred("venue", "EDBT")), SelectSpec("V", TruePred), "venue", "title")
    def row(first: Side, label: String) = {
      val (_, s) = Executor.runJoin(p, v, spec, CleanFirst(first), cfgNoLi)
      val (pc, vc) = s.sideComparisons.get
      Seq("Clean First" -> label, "V" -> vc.toString, "P" -> pc.toString,
        "Total" -> s.comparisons.toString)
    }
    Seq(row(RightSide, "V"), row(LeftSide, "P"))
  }

  // ------------------------------------------------------------ Table 6

  /** Table 6: total-time breakdown of Q5 (highest selectivity) on DSD and
    * OAP: Block-Join / Meta-Blocking / Resolution / Group / Other.
    */
  def table6(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val targets = Seq(
      ("DSD", Datasets.context(Datasets.dsd(spark)), Workload.sp("dsd", 5)),
      ("OAP", Datasets.context(Datasets.oap(spark)), Workload.sp("oap", 5)),
      // extra row vs the paper: our largest dataset, where the resolution
      // share is visible past Spark's fixed per-stage overhead
      ("OAGP2M", Datasets.context(Datasets.oagp(spark, 20000)), Workload.sp("oagp", 5)),
    )
    targets.map { case (label, ctx, pred) =>
      warm(ctx)
      ctx.resetLinkIndex()
      val (_, s) = Executor.runSelect(ctx, SelectSpec(label, pred), cfgNoLi)
      val t = s.times
      Seq(
        "E" -> label,
        "TT(s)" -> f"${s.totalMs / 1000.0}%.3f",
        "Block-Join" -> pct(t.blockJoinMs, s.totalMs),
        "Meta-blocking" -> pct(t.metaBlockingMs, s.totalMs),
        "Resolution" -> pct(t.comparisonMs, s.totalMs),
        "Group" -> pct(t.groupMs, s.totalMs),
        "Other" -> pct(t.otherMs, s.totalMs),
      )
    }
  }

  // ------------------------------------------------------------ Table 7

  /** Table 7: dataset characteristics — |E|, |L_E|, |A|, |TBI|. */
  def table7(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val all: Seq[(String, DirtyDataset)] =
      Seq(
        "DSD" -> Datasets.dsd(spark),
        "OAO" -> Datasets.oao(spark),
        "OAP" -> Datasets.oap(spark),
      ) ++
        sizes.map { case (label, n) => s"PPL$label" -> Datasets.ppl(spark, n) } ++
        sizes.map { case (label, n) => s"OAGP$label" -> Datasets.oagp(spark, n) } :+
        ("OAGV" -> Datasets.oagv(spark))
    all.map { case (label, ds) =>
      val ctx = Datasets.context(ds)
      Seq(
        "E" -> label,
        "|E|" -> ctx.size.toString,
        "|L_E|" -> ds.truthPairs.toString,
        "|A|" -> ctx.attrs.size.toString,
        "|TBI|" -> ctx.tbiBlockCount.toString,
      )
    }
  }

  // ------------------------------------------------------------ Table 8

  /** Table 8: meta-blocking configurations (ALL, BP+BF, BP+EP) for Q1 and
    * Q5 on PPL1M/OAGP1M equivalents — time and PC.
    */
  def table8(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val ppl  = Datasets.context(Datasets.ppl(spark, 10000))
    val oagp = Datasets.context(Datasets.oagp(spark, 10000))
    val configs = Seq(MbConfig.All, MbConfig.BpBf, MbConfig.BpEp)
    for (ctx <- Seq(ppl, oagp); mb <- configs) warm(ctx, mb)
    for {
      q   <- Seq(1, 5)
      mb  <- configs
    } yield {
      def run(ctx: TableContext, family: String): (Double, Double) = {
        ctx.resetLinkIndex()
        val cfg = DedupConfig(mb = mb, useLinkIndex = false, computePc = true)
        val (_, s) = Executor.runSelect(ctx, SelectSpec(family, Workload.sp(family, q)), cfg)
        (s.totalMs / 1000.0, s.pc.getOrElse(Double.NaN))
      }
      val (tP, pcP) = run(ppl, "ppl")
      val (tO, pcO) = run(oagp, "oagp")
      Seq(
        "Query" -> s"Q$q",
        "Method" -> mb.label,
        "Time (s)" -> f"$tP%.2f / $tO%.2f",
        "PC" -> f"$pcP%.3f / $pcO%.3f",
      )
    }
  }

  // ------------------------------------------------------------ Fig. 9

  /** Fig. 9: QueryER vs the Batch Approach on the SP sweep Q1–Q5 —
    * TT and executed comparisons over DSD, OAP, OAGP2M.
    */
  def fig9(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val targets = Seq(
      ("DSD", "dsd", Datasets.context(Datasets.dsd(spark))),
      ("OAP", "oap", Datasets.context(Datasets.oap(spark))),
      ("OAGP2M", "oagp", Datasets.context(Datasets.oagp(spark, 20000))),
    )
    targets.foreach(t => warm(t._3))
    for {
      (label, family, ctx) <- targets
      q <- 1 to 5
    } yield {
      ctx.resetLinkIndex()
      val pred = Workload.sp(family, q)
      val (_, dq) = Executor.runSelect(ctx, SelectSpec(family, pred), cfgNoLi)
      val (_, ba) = Executor.runBatchSelect(ctx, SelectSpec(family, pred), cfgNoLi)
      Seq(
        "E" -> label,
        "Query" -> s"Q$q",
        "S" -> f"${Workload.SpSelectivities(q - 1) * 100}%.0f%%",
        "QueryER TT(s)" -> f"${dq.totalMs / 1000.0}%.2f",
        "BA TT(s)" -> f"${ba.totalMs / 1000.0}%.2f",
        "QueryER Comp." -> dq.comparisons.toString,
        "BA Comp." -> ba.comparisons.toString,
      )
    }
  }

  // ------------------------------------------------------------ Fig. 10

  /** Fig. 10: scalability of Q9 (MOD(id,10) < 1) over growing |E| on
    * PPL200K–2M and OAGP200K–2M.
    */
  def fig10(spark: SparkSession): Seq[Seq[(String, String)]] = {
    for {
      (family, mk) <- Seq(
        ("PPL", (n: Long) => Datasets.ppl(spark, n)),
        ("OAGP", (n: Long) => Datasets.oagp(spark, n)))
      (label, n) <- sizes
    } yield {
      val ctx = warm(Datasets.context(mk(n)))
      ctx.resetLinkIndex()
      val (_, s) = Executor.runSelect(ctx, SelectSpec(family, Workload.q9), cfgNoLi)
      Seq(
        "E" -> s"$family$label",
        "|E|" -> n.toString,
        "|QE|" -> s.qeSize.toString,
        "TT(s)" -> f"${s.totalMs / 1000.0}%.2f",
        "Comp." -> s.comparisons.toString,
      )
    }
  }

  // ------------------------------------------------------------ Fig. 11

  /** Fig. 11: consecutive overlapping queries Q10–Q13 on OAGP2M with and
    * without the Link Index.
    */
  def fig11(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val ds = Datasets.oagp(spark, 20000)
    val withLi    = warm(TableContext(ds.name + "Li", ds.df, Some(ds.truth)))
    val withoutLi = warm(Datasets.context(ds))
    withLi.resetLinkIndex()
    val rows = for (q <- 10 to 13) yield {
      withoutLi.resetLinkIndex()
      val pred = Workload.li("oagp", q)
      val (_, a) = Executor.runSelect(withLi, SelectSpec("oagp", pred), DedupConfig())
      val (_, b) = Executor.runSelect(withoutLi, SelectSpec("oagp", pred), cfgNoLi)
      Seq(
        "Query" -> s"Q$q",
        "S" -> f"${Workload.LiSelectivities(q - 10) * 100}%.0f%%",
        "With LI TT(s)" -> f"${a.totalMs / 1000.0}%.2f",
        "Without LI TT(s)" -> f"${b.totalMs / 1000.0}%.2f",
        "With LI Comp." -> a.comparisons.toString,
        "Without LI Comp." -> b.comparisons.toString,
      )
    }
    rows
  }

  // ------------------------------------------------------------ Fig. 12

  /** Fig. 12: AES vs NES vs BA on the SPJ queries Q6a/b (S=77%) and
    * Q7a/b (S=75%/100%) — TT and executed comparisons.
    */
  def fig12(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val oao  = warm(Datasets.context(Datasets.oao(spark)))
    val oagv = warm(Datasets.context(Datasets.oagv(spark)))
    val ppl  = warm(Datasets.context(Datasets.ppl(spark, 20000)))
    val oagp = warm(Datasets.context(Datasets.oagp(spark, 20000)))
    val oap  = warm(Datasets.context(Datasets.oap(spark)))
    val queries = Seq(
      ("Q6a", ppl, oao, "org", "orgname", Workload.rangeFor("ppl", 0.77)),
      ("Q6b", oagp, oagv, "venue", "title", Workload.rangeFor("oagp", 0.77)),
      ("Q7a", oap, oao, "org", "orgname", Workload.rangeFor("oap", 0.75)),
      ("Q7b", oagp, oagv, "venue", "title", TruePred: Pred),
    )
    for ((label, l, r, la, ra, lPred) <- queries) yield {
      val spec = JoinSpec(SelectSpec(l.name, lPred), SelectSpec(r.name, TruePred), la, ra)
      l.resetLinkIndex(); r.resetLinkIndex()
      val (_, aes) = Executor.runJoin(l, r, spec, AdvancedPlanner, cfgNoLi)
      l.resetLinkIndex(); r.resetLinkIndex()
      val (_, nes) = Executor.runJoin(l, r, spec, NaivePlanner, cfgNoLi)
      val (_, ba)  = Executor.runBatchJoin(l, r, spec, cfgNoLi)
      Seq(
        "Query" -> label,
        "Join" -> s"${l.name}⋈${r.name}",
        "AES TT(s)" -> f"${aes.totalMs / 1000.0}%.2f",
        "NES TT(s)" -> f"${nes.totalMs / 1000.0}%.2f",
        "BA TT(s)" -> f"${ba.totalMs / 1000.0}%.2f",
        "AES Comp." -> aes.comparisons.toString,
        "NES Comp." -> nes.comparisons.toString,
        "BA Comp." -> ba.comparisons.toString,
      )
    }
  }

  // ------------------------------------------------------------ Fig. 13

  /** Fig. 13: AES vs NES scalability on Q8a/b — joins of growing
    * PPL/OAGP against OAO/OAGV with fixed 15% selectivity.
    */
  def fig13(spark: SparkSession): Seq[Seq[(String, String)]] = {
    val oao  = warm(Datasets.context(Datasets.oao(spark)))
    val oagv = warm(Datasets.context(Datasets.oagv(spark)))
    for {
      (qLabel, family, mk, dim, la, ra) <- Seq(
        ("Q8a", "ppl", (n: Long) => Datasets.ppl(spark, n), oao, "org", "orgname"),
        ("Q8b", "oagp", (n: Long) => Datasets.oagp(spark, n), oagv, "venue", "title"))
      (label, n) <- sizes
    } yield {
      val big  = warm(Datasets.context(mk(n)))
      val spec = JoinSpec(
        SelectSpec(big.name, Workload.rangeFor(family, 0.15)),
        SelectSpec(dim.name, TruePred), la, ra)
      big.resetLinkIndex(); dim.resetLinkIndex()
      val (_, aes) = Executor.runJoin(big, dim, spec, AdvancedPlanner, cfgNoLi)
      big.resetLinkIndex(); dim.resetLinkIndex()
      val (_, nes) = Executor.runJoin(big, dim, spec, NaivePlanner, cfgNoLi)
      Seq(
        "Query" -> qLabel,
        "|E|" -> s"$family$label",
        "AES TT(s)" -> f"${aes.totalMs / 1000.0}%.2f",
        "NES TT(s)" -> f"${nes.totalMs / 1000.0}%.2f",
        "AES Comp." -> aes.comparisons.toString,
        "NES Comp." -> nes.comparisons.toString,
      )
    }
  }
}

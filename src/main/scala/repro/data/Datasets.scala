package repro.data

import org.apache.spark.sql.SparkSession

/** The experiment dataset family (paper §9.1, Table 7) at 1/100 scale.
  *
  * | ours      | paper            | |E| ours      | dup share | |A| |
  * |-----------|------------------|---------------|-----------|-----|
  * | dsd       | DBLP-Scholar 67K | 2,000         | 8%        | 4   |
  * | oao       | Organisations 55K| 1,000         | 10%       | 3   |
  * | oap       | Projects 500K    | 5,000         | 11.6%     | 8   |
  * | ppl2k-20k | People 200K-2M   | 2K…20K        | 40%       | 12  |
  * | oagp2k-20k| OAG Papers 200K-2M| 2K…20K       | 3–13%     | 18  |
  * | oagv      | OAG Venues 130K  | 1,300         | 23%       | 5   |
  *
  * Everything is deterministic in the default seeds; generators are
  * memoised per SparkSession so benches can share instances.
  */
object Datasets {

  /** PPL/OAGP size variants: ours → the paper's label. */
  val SizeVariants: Seq[(Long, String)] =
    Seq(2000L -> "200K", 5000L -> "500K", 10000L -> "1M", 15000L -> "1.5M", 20000L -> "2M")

  /** OAGP duplicate shares per size (Table 7 |L_E|/|E| ratios, rounded). */
  val OagpDupShare: Map[String, Double] =
    Map("200K" -> 0.03, "500K" -> 0.108, "1M" -> 0.078, "1.5M" -> 0.09, "2M" -> 0.134)

  private val memo =
    scala.collection.concurrent.TrieMap.empty[(SparkSession, String), DirtyDataset]

  private val ctxMemo =
    scala.collection.concurrent.TrieMap.empty[(SparkSession, String), repro.core.TableContext]

  /** Memoised TableContext of a dataset — one TBI/LI per dataset per
    * session (benches share them; call resetLinkIndex() for a cold LI).
    */
  def context(ds: DirtyDataset): repro.core.TableContext =
    ctxMemo.getOrElseUpdate((ds.df.sparkSession, ds.name), ds.toContext)

  private def cached(spark: SparkSession, key: String)(mk: => DirtyDataset): DirtyDataset =
    memo.getOrElseUpdate((spark, key), {
      val d  = mk
      val df = d.df.cache(); df.count()
      val tr = d.truth.cache(); tr.count()
      d.copy(df = df, truth = tr)
    })

  def oao(spark: SparkSession, n: Int = 1000): DirtyDataset =
    cached(spark, s"oao$n")(DirtyGen.orgs(spark, n, name = s"oao$n"))

  def oagv(spark: SparkSession, n: Int = 1300): DirtyDataset =
    cached(spark, s"oagv$n")(DirtyGen.venues(spark, n, name = s"oagv$n"))

  def dsd(spark: SparkSession, n: Long = 2000): DirtyDataset =
    cached(spark, s"dsd$n")(DirtyGen.biblio(spark, n, name = s"dsd$n"))

  /** Surface forms used as foreign "dirty keys" by PPL/OAP/OAGP. */
  def orgForms(spark: SparkSession): Array[String] =
    oao(spark).df.select("orgname").collect().map(_.getString(0))

  def venueForms(spark: SparkSession): Array[String] =
    oagv(spark).df.select("title").collect().map(_.getString(0))

  def oap(spark: SparkSession, n: Long = 5000): DirtyDataset =
    cached(spark, s"oap$n")(DirtyGen.projects(spark, n, orgForms(spark), name = s"oap$n"))

  def ppl(spark: SparkSession, n: Long): DirtyDataset =
    cached(spark, s"ppl$n")(DirtyGen.people(spark, n, orgForms(spark), name = s"ppl$n"))

  def oagp(spark: SparkSession, n: Long): DirtyDataset = {
    val label = SizeVariants.toMap.getOrElse(n, "2M")
    val share = OagpDupShare.getOrElse(label, 0.10)
    cached(spark, s"oagp$n")(
      DirtyGen.papers(spark, n, venueForms(spark), name = s"oagp$n", dupShare = share))
  }
}

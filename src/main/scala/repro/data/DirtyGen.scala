package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{TableContext, Tokenizer}

import scala.util.Random

/** A generated dirty collection plus its ground truth `(eid, cluster)`. */
final case class DirtyDataset(name: String, df: DataFrame, truth: DataFrame) {
  def toContext: TableContext = TableContext(name, df, Some(truth))

  /** Number of ground-truth duplicate pairs |L_E| (Table 7). */
  def truthPairs: Long = {
    val byCluster = truth.groupBy("cluster").count()
    val agg = byCluster.agg(sum(expr("count * (count - 1) DIV 2"))).collect()(0)
    if (agg.isNullAt(0)) 0L else agg.getLong(0)
  }
}

/** Deterministic febrl-equivalent dirty-data generator (paper §9.1).
  *
  * Duplicates are produced "based on real-world error characteristics":
  * character typos (swap/delete/replace/insert), token abbreviation
  * ("Entity Resolution" → "E. Resolution"), token drop/swap, and missing
  * values — with at most `maxModsPerAttr` modifications per attribute,
  * mirroring the paper's febrl settings (≤2 mods/attribute,
  * ≤4 mods/record, ≤3 duplicates/record).
  */
object DirtyGen {

  // ---------------------------------------------------------------- corruption engine

  /** Apply 1..maxMods random character/token edits to a value. */
  def corrupt(value: String, rng: Random, maxMods: Int = 2): String = {
    if (value == null || value.isEmpty) return value
    var v = value
    val mods = 1 + rng.nextInt(maxMods)
    for (_ <- 0 until mods) {
      v = rng.nextInt(6) match {
        case 0 => typoSwap(v, rng)
        case 1 => typoDelete(v, rng)
        case 2 => typoReplace(v, rng)
        case 3 => typoInsert(v, rng)
        case 4 => abbreviateToken(v, rng)
        case 5 => dropToken(v, rng)
      }
    }
    v
  }

  private[data] def typoSwap(s: String, rng: Random): String =
    if (s.length < 2) s
    else {
      val i  = rng.nextInt(s.length - 1)
      val cs = s.toCharArray
      val t  = cs(i); cs(i) = cs(i + 1); cs(i + 1) = t
      new String(cs)
    }

  private[data] def typoDelete(s: String, rng: Random): String =
    if (s.length < 2) s
    else { val i = rng.nextInt(s.length); s.substring(0, i) + s.substring(i + 1) }

  private[data] def typoReplace(s: String, rng: Random): String = {
    val i = rng.nextInt(s.length)
    s.substring(0, i) + ('a' + rng.nextInt(26)).toChar + s.substring(i + 1)
  }

  private[data] def typoInsert(s: String, rng: Random): String = {
    val i = rng.nextInt(s.length + 1)
    s.substring(0, i) + ('a' + rng.nextInt(26)).toChar + s.substring(i)
  }

  /** "entity resolution" → "e. resolution" — febrl-style abbreviation. */
  private[data] def abbreviateToken(s: String, rng: Random): String = {
    val toks = s.split(" ")
    val cand = toks.indices.filter(i => toks(i).length > 3)
    if (cand.isEmpty) s
    else {
      val i = cand(rng.nextInt(cand.length))
      toks(i) = toks(i).charAt(0) + "."
      toks.mkString(" ")
    }
  }

  private[data] def dropToken(s: String, rng: Random): String = {
    val toks = s.split(" ")
    if (toks.length < 3) s
    else {
      val i = rng.nextInt(toks.length)
      (toks.take(i) ++ toks.drop(i + 1)).mkString(" ")
    }
  }

  /** Acronym of a multi-word name: "international conference on x" → "ico x"-style
    * initials of non-stopword tokens ("edbt"-like surface forms).
    */
  def acronym(name: String): String =
    name.split("[^\\p{L}\\p{N}]+")
      .filter(t => t.nonEmpty && !Tokenizer.Stopwords.contains(t))
      .map(_.charAt(0)).mkString("")

  /** Column-level corruption UDF: deterministic in (eid, attrIdx, seed);
    * with probability `pNull` the value is dropped, with `pCorrupt` it is
    * edited (≤ maxMods edits), otherwise kept verbatim.
    */
  private def corruptCol(c: Column, eid: Column, attrIdx: Int, seed: Long,
                         pCorrupt: Double, pNull: Double, maxMods: Int = 2): Column = {
    val f = udf { (v: String, id: Long) =>
      if (v == null) null
      else {
        val rng = new Random(seed * 1000003L + id * 31L + attrIdx * 7L)
        val roll = rng.nextDouble()
        if (roll < pNull) null
        else if (roll < pNull + pCorrupt) corrupt(v, rng, maxMods)
        else v
      }
    }
    f(c.cast("string"), eid)
  }

  // ---------------------------------------------------------------- Spark generation helpers

  /** Deterministic pool pick keyed on the original-record id. The pool is
    * held in a UDF closure, not a literal, so a plan ships each pool once.
    */
  private def pick(pool: Array[String], oid: Column, salt: Int): Column =
    udf((i: Int) => pool(i)).apply(hashInt(oid, salt, pool.length))

  private def hashInt(oid: Column, salt: Int, mod: Int): Column =
    pmod(xxhash64(oid, lit(salt)), lit(mod)).cast("int")

  /** Original/duplicate split for a target total of `n` records with a
    * `dupShare` fraction of duplicate records, ≤ `maxDups` per original.
    * Returns (originals-with-oid, dupSkeleton(eid, oid, copyIdx)).
    */
  private def dupSkeleton(spark: SparkSession, n: Long, dupShare: Double, maxDups: Int)
      : (Long, Long, DataFrame) = {
    val nOrig    = math.max(1L, math.round(n * (1 - dupShare)))
    val nDup     = math.max(0L, n - nOrig)
    val nParents = math.max(1L, math.ceil(nDup.toDouble / maxDups).toLong)
    val dups = spark.range(nDup).select(
      (col("id") + nOrig).as(Tokenizer.EidCol),
      pmod(col("id"), lit(nParents)).as("oid"),
      (col("id") / nParents).cast("long").as("copyIdx"),
    )
    (nOrig, nDup, dups)
  }

  /** Assemble a dirty dataset from a base-attribute builder. The base is
    * generated once per original id; duplicates join the base row of
    * their parent and corrupt each attribute independently.
    */
  private def assemble(
      spark: SparkSession,
      name: String,
      n: Long,
      dupShare: Double,
      maxDups: Int,
      seed: Long,
      attrs: Seq[(String, Column)], // built over column "oid"
      pCorrupt: Double,
      pNull: Double,
  ): DirtyDataset = {
    val (nOrig, _, dupSkel) = dupSkeleton(spark, n, dupShare, maxDups)
    val base = spark.range(nOrig).withColumnRenamed("id", "oid").select(
      (col("oid") +: attrs.map { case (a, c) => c.cast("string").as(a) }): _*)
    val originals = base.select(
      (col("oid").as(Tokenizer.EidCol) +: attrs.map(a => col(a._1))): _*)
    val dupJoined = dupSkel.join(base, "oid")
    val corrupted = attrs.map(_._1).zipWithIndex.foldLeft(dupJoined) {
      case (d, (a, i)) =>
        d.withColumn(a, corruptCol(col(a), col(Tokenizer.EidCol), i, seed, pCorrupt, pNull))
    }
    val dupRows = corrupted.select(
      (col(Tokenizer.EidCol) +: attrs.map(a => col(a._1))): _*)
    val df = originals.unionByName(dupRows)
    val truth = originals.select(col(Tokenizer.EidCol), col(Tokenizer.EidCol).as("cluster"))
      .unionByName(dupSkel.select(col(Tokenizer.EidCol), col("oid").as("cluster")))
    DirtyDataset(name, df, truth)
  }

  // ---------------------------------------------------------------- datasets

  /** PPL — febrl-style people records, |A| = 12, 40% duplicate records,
    * ≤3 duplicates per record (paper §9.1). `orgForms` are surface forms
    * from the OAO table so PPL ⋈ OAO is a dirty join.
    */
  def people(spark: SparkSession, n: Long, orgForms: Array[String],
             name: String = "ppl", seed: Long = 7L,
             dupShare: Double = 0.40, maxDups: Int = 3): DirtyDataset = {
    val oid   = col("oid")
    val first = pick(Pools.FirstNames, oid, 1)
    val last  = pick(Pools.LastNames, oid, 2)
    val attrs = Seq(
      "firstname"  -> first,
      "lastname"   -> last,
      "street"     -> concat_ws(" ", (hashInt(oid, 3, 980) + 1).cast("string"), pick(Pools.Streets, oid, 4)),
      "city"       -> pick(Pools.Cities, oid, 5),
      "state"      -> pick(Pools.States, oid, 6),
      "postcode"   -> format_string("%05d", hashInt(oid, 7, 90000) + 10000),
      "phone"      -> format_string("555-%04d", hashInt(oid, 8, 10000)),
      "email"      -> concat(first, lit("."), last, lit("@"), pick(Array("mail.com", "example.org", "inbox.net", "post.eu"), oid, 9)),
      "org"        -> pick(orgForms, oid, 10),
      "occupation" -> pick(Pools.Occupations, oid, 11),
      "byear"      -> (hashInt(oid, 12, 100) + 1900).cast("string"),
      "gender"     -> pick(Array("female", "male"), oid, 13),
    )
    assemble(spark, name, n, dupShare, maxDups, seed, attrs, pCorrupt = 0.25, pNull = 0.04)
  }

  /** OAP — OpenAIRE-Projects-like records, |A| = 8, ~11.6% duplicates. */
  def projects(spark: SparkSession, n: Long, orgForms: Array[String],
               name: String = "oap", seed: Long = 19L,
               dupShare: Double = 0.116): DirtyDataset = {
    val oid   = col("oid")
    val words = Pools.wordPool(1200, 23L)
    val title = concat_ws(" ",
      pick(words, oid, 1), pick(words, oid, 2), pick(words, oid, 3), pick(Pools.Fields, oid, 4))
    val attrs = Seq(
      "title"     -> title,
      "acronym"   -> upper(concat(substring(pick(words, oid, 1), 1, 3), substring(pick(words, oid, 2), 1, 3))),
      "org"       -> pick(orgForms, oid, 5),
      "funder"    -> pick(Pools.Funders, oid, 6),
      "amount"    -> ((hashInt(oid, 7, 4900) + 100) * 1000).cast("string"),
      "startyear" -> (hashInt(oid, 8, 20) + 2000).cast("string"),
      "endyear"   -> (hashInt(oid, 8, 20) + 2002).cast("string"),
      "keywords"  -> concat_ws(" ", pick(words, oid, 9), pick(words, oid, 10)),
    )
    assemble(spark, name, n, dupShare, maxDups = 2, seed, attrs, pCorrupt = 0.25, pNull = 0.05)
  }

  /** OAGP — OAG-Papers-like records, |A| = 18; duplicate share per size
    * variant follows Table 7 ratios. `venueForms` are OAGV surface forms;
    * only `venueJoinShare` of the papers reference a known venue, which
    * reproduces the paper's low OAGP ⋈ OAGV join-percentage (§9.3).
    */
  def papers(spark: SparkSession, n: Long, venueForms: Array[String],
             name: String = "oagp", seed: Long = 29L,
             dupShare: Double = 0.10, venueJoinShare: Double = 0.08): DirtyDataset = {
    val oid    = col("oid")
    val words  = Pools.wordPool(2500, 31L)
    val others = Pools.VenueTopics.map(t => s"workshop on $t")
    val author = (s1: Int, s2: Int) =>
      concat_ws(" ", pick(Pools.FirstNames, oid, s1), pick(Pools.LastNames, oid, s2))
    val venue = when(hashInt(oid, 40, 1000) < (venueJoinShare * 1000).toInt,
      pick(venueForms, oid, 41)).otherwise(pick(others, oid, 42))
    val attrs = Seq(
      "title"     -> concat_ws(" ", pick(words, oid, 1), pick(words, oid, 2), pick(words, oid, 3),
                               pick(words, oid, 4), pick(words, oid, 5)),
      "authors"   -> concat_ws(", ", author(6, 7), author(8, 9)),
      "venue"     -> venue,
      "year"      -> (hashInt(oid, 10, 100) + 1920).cast("string"),
      "publisher" -> pick(Pools.Publishers, oid, 11),
      "volume"    -> (hashInt(oid, 12, 60) + 1).cast("string"),
      "issue"     -> (hashInt(oid, 13, 12) + 1).cast("string"),
      "pages"     -> concat_ws("-", (hashInt(oid, 14, 900) + 1).cast("string"),
                               (hashInt(oid, 14, 900) + 12).cast("string")),
      "doi"       -> concat(lit("10."), (hashInt(oid, 15, 9000) + 1000).cast("string"),
                            lit("/"), pick(words, oid, 16), (hashInt(oid, 17, 100000)).cast("string")),
      "url"       -> concat(lit("https://doc.site/"), pick(words, oid, 18), lit("/"),
                            (hashInt(oid, 19, 100000)).cast("string")),
      "lang"      -> pick(Pools.Languages, oid, 20),
      "keywords"  -> concat_ws(" ", pick(words, oid, 21), pick(words, oid, 22), pick(words, oid, 23)),
      "field"     -> pick(Pools.Fields, oid, 24),
      "doctype"   -> pick(Pools.DocTypes, oid, 25),
      "source"    -> pick(Pools.Sources, oid, 26),
      "citations" -> hashInt(oid, 27, 500).cast("string"),
      "issn"      -> format_string("%04d-%04d", hashInt(oid, 28, 10000), hashInt(oid, 29, 10000)),
      "abstract1" -> concat_ws(" ", pick(words, oid, 30), pick(words, oid, 31), pick(words, oid, 32),
                               pick(words, oid, 33)),
    )
    assemble(spark, name, n, dupShare, maxDups = 2, seed, attrs, pCorrupt = 0.22, pNull = 0.05)
  }

  /** DSD — DBLP-Scholar-like bibliographic records, |A| = 4, ~8%
    * duplicates; the duplicate "source" abbreviates authors and venues,
    * like Google-Scholar entries of DBLP papers.
    */
  def biblio(spark: SparkSession, n: Long, name: String = "dsd",
             seed: Long = 37L, dupShare: Double = 0.08): DirtyDataset = {
    val oid   = col("oid")
    val words = Pools.wordPool(900, 41L)
    val attrs = Seq(
      "title"   -> concat_ws(" ", pick(words, oid, 1), pick(words, oid, 2), pick(words, oid, 3),
                             pick(words, oid, 4)),
      "authors" -> concat_ws(", ",
        concat_ws(" ", pick(Pools.FirstNames, oid, 5), pick(Pools.LastNames, oid, 6)),
        concat_ws(" ", pick(Pools.FirstNames, oid, 7), pick(Pools.LastNames, oid, 8))),
      "venue"   -> pick(Pools.VenueTopics.map(t => s"international conference on $t"), oid, 9),
      "year"    -> (hashInt(oid, 10, 50) + 1970).cast("string"),
    )
    assemble(spark, name, n, dupShare, maxDups = 1, seed, attrs, pCorrupt = 0.45, pNull = 0.06)
  }

  /** OAO — organisations with name-variant duplicates, |A| = 3, 10%
    * duplicates (paper §9.1: modified with febrl). Driver-built: the
    * canonical list is small and each duplicate is a structured variant
    * (abbreviation/acronym/typo) of its parent's name.
    */
  def orgs(spark: SparkSession, n: Int = 1000, name: String = "oao",
           seed: Long = 43L, dupShare: Double = 0.10): DirtyDataset = {
    import spark.implicits._
    val rng    = new Random(seed)
    val nCanon = math.max(1, math.round(n * (1 - dupShare)).toInt)
    val nDup   = n - nCanon
    // a distinct pseudo-word per canonical org keeps names discriminative
    // (real org names rarely differ by a digit only)
    val marks  = Pools.wordPool(math.max(64, nCanon * 2), seed + 1)
    val canon = (0 until nCanon).map { i =>
      val city  = Pools.Cities(rng.nextInt(Pools.Cities.length))
      val field = Pools.Fields(rng.nextInt(Pools.Fields.length))
      val mark  = marks(i % marks.length)
      val style = rng.nextInt(3)
      val nm = style match {
        case 0 => s"$mark university of $city"
        case 1 => s"$mark institute of $field"
        case 2 => s"$mark research center for $field"
      }
      (i.toLong, nm, Pools.Countries(rng.nextInt(Pools.Countries.length)), city)
    }
    val dups = (0 until nDup).map { j =>
      val parent = canon(j % nCanon)
      val variant = rng.nextInt(3) match {
        case 0 => parent._2.replace("university", "univ.").replace("institute", "inst.")
          .replace("research center for", "res. ctr.")
        case 1 => acronym(parent._2)
        case 2 => corrupt(parent._2, rng, 2)
      }
      ((nCanon + j).toLong, variant, parent._3, parent._4, parent._1)
    }
    val df = canon.map(c => (c._1, c._2, c._3, c._4))
      .toDF(Tokenizer.EidCol, "orgname", "country", "city")
      .unionByName(dups.map(d => (d._1, d._2, d._3, d._4))
        .toDF(Tokenizer.EidCol, "orgname", "country", "city"))
    val truth = canon.map(c => (c._1, c._1)).toDF(Tokenizer.EidCol, "cluster")
      .unionByName(dups.map(d => (d._1, d._5)).toDF(Tokenizer.EidCol, "cluster"))
    DirtyDataset(name, df, truth)
  }

  /** OAGV — venues with full-name/acronym surface-form duplicates,
    * |A| = 5 (title, description, rank, frequency, est — Table 2's exact
    * schema), ~23% duplicates.
    */
  def venues(spark: SparkSession, n: Int = 1300, name: String = "oagv",
             seed: Long = 47L, dupShare: Double = 0.23): DirtyDataset = {
    import spark.implicits._
    val rng    = new Random(seed)
    val nCanon = math.max(1, math.round(n * (1 - dupShare)).toInt)
    val nDup   = n - nCanon
    val freqs  = Array("annual", "yearly", "biennial", "biyearly", "quarterly")
    // a distinct pseudo-word and a varied template per canonical venue
    // keep titles discriminative even when the domain topic recurs
    val marks = Pools.wordPool(math.max(64, nCanon * 2), seed + 2)
    val templates = Array[(String, String) => String](
      (m, t) => s"international conference on $m $t",
      (m, t) => s"symposium on $m $t",
      (m, t) => s"workshop on advances in $m $t",
      (m, t) => s"$m $t conference",
      (m, t) => s"annual meeting on $m $t",
    )
    val canon = (0 until nCanon).map { i =>
      val topic = Pools.VenueTopics(rng.nextInt(Pools.VenueTopics.length))
      val full  = templates(rng.nextInt(templates.length))(marks(i % marks.length), topic)
      val acr   = acronym(full)
      val rank  = (1 + rng.nextInt(3)).toString
      val est   = (1960 + rng.nextInt(60)).toString
      // like Table 2: some rows carry the full name, others the acronym
      if (rng.nextBoolean()) (i.toLong, full, acr, rank, freqs(rng.nextInt(2)), est, full, acr)
      else (i.toLong, acr, full, rank, freqs(rng.nextInt(2)), est, full, acr)
    }
    val dups = (0 until nDup).map { j =>
      val p = canon(j % nCanon)
      // the duplicate swaps title/description surface forms (V1 vs V4);
      // when the title is the acronym the full name stays in the
      // description so the representation swap remains detectable
      val title = if (p._2 == p._7) p._8 else p._7
      val desc =
        if (title == p._8) p._7
        else if (rng.nextDouble() < 0.3) null
        else p._8
      val rank  = if (rng.nextDouble() < 0.3) null else p._4
      val freq  = freqs(rng.nextInt(freqs.length))
      val est   = if (rng.nextDouble() < 0.2) null else p._6
      ((nCanon + j).toLong, title, desc, rank, freq, est, p._1)
    }
    val df = canon.map(c => (c._1, c._2, c._3, c._4, c._5, c._6))
      .toDF(Tokenizer.EidCol, "title", "description", "rank", "frequency", "est")
      .unionByName(dups.map(d => (d._1, d._2, d._3, d._4, d._5, d._6))
        .toDF(Tokenizer.EidCol, "title", "description", "rank", "frequency", "est"))
    val truth = canon.map(c => (c._1, c._1)).toDF(Tokenizer.EidCol, "cluster")
      .unionByName(dups.map(d => (d._1, d._7)).toDF(Tokenizer.EidCol, "cluster"))
    DirtyDataset(name, df, truth)
  }
}

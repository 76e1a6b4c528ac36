package repro.core

import java.util.Locale

/** String similarity functions used by Comparison-Execution (paper §6.1.iv).
  *
  * The paper fixes Jaro-Winkler as the resolution function for all
  * experiments. Implemented from scratch, without a text-similarity
  * library dependency.
  */
object Similarity {

  /** Jaro similarity in [0, 1]. Standard definition: matches within a
    * window of max(|a|,|b|)/2 - 1, transpositions counted over the matched
    * subsequences.
    */
  def jaro(a: String, b: String): Double = {
    if (a == null || b == null) return 0.0
    if (a.isEmpty && b.isEmpty) return 1.0
    if (a.isEmpty || b.isEmpty) return 0.0
    if (a == b) return 1.0
    val window = math.max(0, math.max(a.length, b.length) / 2 - 1)
    val aMatched = new Array[Boolean](a.length)
    val bMatched = new Array[Boolean](b.length)
    var matches = 0
    var i = 0
    while (i < a.length) {
      val lo = math.max(0, i - window)
      val hi = math.min(b.length - 1, i + window)
      var j = lo
      var found = false
      while (j <= hi && !found) {
        if (!bMatched(j) && a.charAt(i) == b.charAt(j)) {
          aMatched(i) = true; bMatched(j) = true; matches += 1; found = true
        }
        j += 1
      }
      i += 1
    }
    if (matches == 0) return 0.0
    // Count transpositions between the two matched subsequences.
    var transpositions = 0
    var k = 0
    i = 0
    while (i < a.length) {
      if (aMatched(i)) {
        while (!bMatched(k)) k += 1
        if (a.charAt(i) != b.charAt(k)) transpositions += 1
        k += 1
      }
      i += 1
    }
    val m = matches.toDouble
    (m / a.length + m / b.length + (m - transpositions / 2.0) / m) / 3.0
  }

  /** Jaro-Winkler: Jaro boosted by the common-prefix bonus (p = 0.1,
    * prefix capped at 4, boost applied above the 0.7 boost threshold).
    */
  def jaroWinkler(a: String, b: String): Double = {
    val j = jaro(a, b)
    if (j < 0.7 || a == null || b == null) return j
    var prefix = 0
    val max = math.min(4, math.min(a.length, b.length))
    while (prefix < max && a.charAt(prefix) == b.charAt(prefix)) prefix += 1
    math.min(1.0, j + 0.1 * prefix * (1.0 - j))
  }

  /** Token similarity used by [[mongeElkanAbbrev]]: exact tokens score 1,
    * an initial against the word it abbreviates ("e" vs "entity") scores
    * 0.92 — the dominant error pattern in bibliographic sources (paper
    * Tables 1–2: "Collective E.R.", "J. Davids") — everything else falls
    * back to Jaro-Winkler.
    */
  def tokenSim(x: String, y: String): Double =
    if (x == y) 1.0
    else if (x.length == 1 && y.length > 1 && y.charAt(0) == x.charAt(0)) 0.92
    else if (y.length == 1 && x.length > 1 && x.charAt(0) == y.charAt(0)) 0.92
    else jaroWinkler(x, y)

  /** Tokens of an already lowercased value. */
  private def tokens(lower: String): Array[String] =
    Tokenizer.Separators.split(lower).filter(_.nonEmpty)

  private def meTokens(s: String): Array[String] = tokens(s.toLowerCase(Locale.ROOT))

  /** Symmetric Monge-Elkan with abbreviation-aware token similarity:
    * every token of one side is aligned with its best match on the other
    * and the alignment scores are averaged in both directions, weighted
    * by token length so an initial ("E.") carries less evidence than a
    * full word — otherwise "Collective E.R." would align with any title
    * containing "Entity Resolution". Robust to token reordering
    * ("Davidson Lisa" vs "Lisa Davidson") and abbreviation.
    */
  def mongeElkanAbbrev(a: String, b: String): Double = mongeElkan(meTokens(a), meTokens(b))

  private def mongeElkan(ta: Array[String], tb: Array[String]): Double = {
    if (ta.isEmpty || tb.isEmpty) return 0.0
    def dir(xs: Array[String], ys: Array[String]): Double = {
      var sum  = 0.0
      var wtot = 0.0
      for (x <- xs) {
        var best = 0.0
        for (y <- ys) { val s = tokenSim(x, y); if (s > best) best = s }
        sum += x.length * best
        wtot += x.length
      }
      sum / wtot
    }
    (dir(ta, tb) + dir(tb, ta)) / 2.0
  }

  /** 0.93 when one value is (nearly) the acronym of the other multi-word
    * value ("dus" vs "dorlex university of springfield") — a common
    * surface-form pattern in organisation/venue names.
    */
  private def acronym(ta: Array[String], tb: Array[String]): Double = {
    def oneWay(short: Array[String], long: Array[String]): Double =
      if (short.length == 1 && long.length >= 3) {
        val acr = long.filterNot(Tokenizer.Stopwords.contains).map(_.charAt(0)).mkString
        if (acr.length >= 3 && jaroWinkler(short(0), acr) >= 0.9) 0.93 else 0.0
      } else 0.0
    math.max(oneWay(ta, tb), oneWay(tb, ta))
  }

  /** Per-attribute similarity: the best of character-level Jaro-Winkler,
    * token-level abbreviation-aware Monge-Elkan, and acronym matching; each
    * value is lowercased and tokenised once for both token-level measures.
    */
  def attrSim(a: String, b: String): Double = {
    val x = a.toLowerCase(Locale.ROOT); val y = b.toLowerCase(Locale.ROOT)
    val tx = tokens(x); val ty = tokens(y)
    math.max(math.max(jaroWinkler(x, y), mongeElkan(tx, ty)), acronym(tx, ty))
  }

  /** Schema-agnostic profile similarity (paper §6.1.iv): the values of all
    * corresponding attributes are compared; attribute slots where either
    * side is null/blank are skipped (homogeneous collections ⇒ position i
    * is the same attribute on both sides). Entity matching is orthogonal
    * in the paper (§4), and a plain mean of Jaro-Winkler cannot resolve
    * its own motivating example, so the resolution function is a hybrid:
    *
    *  1. per-attribute similarity = [[attrSim]] (JW ⊔ abbreviation-aware
    *     Monge-Elkan);
    *  2. attributes are weighted by discriminativeness, 1/ln(1+f) with f
    *     the value's frequency in the collection — low-cardinality values
    *     ("EDBT", a state name) carry less evidence than a unique title;
    *  3. cross-position bonus: a near-exact (JW ≥ 0.95) match of long
    *     (≥12 chars) values in *different* attribute slots flags a
    *     surface-form swap (paper Table 2: V4.description = V1.title) and
    *     lifts the similarity to 0.95.
    *
    * @param freq value-frequency lookup of the collection (≥ 1)
    */
  def profileSimilarity(a: Seq[String], b: Seq[String], freq: String => Long): Double = {
    require(a.length == b.length, s"attribute arity mismatch: ${a.length} vs ${b.length}")
    var wsum = 0.0
    var wtot = 0.0
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x != null && y != null && x.nonEmpty && y.nonEmpty) {
        val s = attrSim(x, y)
        val w = 1.0 / math.log(1.0 + math.max(1L, math.max(freq(x), freq(y))))
        wsum += w * s
        wtot += w
      }
      i += 1
    }
    val base = if (wtot == 0.0) 0.0 else wsum / wtot
    if (base >= 0.95) base
    else math.max(base, crossPositionBonus(a, b))
  }

  /** 0.95 if two long values near-exactly match in different attribute
    * positions (representation swap), else 0.
    */
  private def crossPositionBonus(a: Seq[String], b: Seq[String]): Double = {
    var i = 0
    while (i < a.length) {
      val x = a(i)
      if (x != null && x.length >= 12) {
        val xl = x.toLowerCase(Locale.ROOT)
        var j = 0
        while (j < b.length) {
          if (j != i) {
            val y = b(j)
            if (y != null && y.length >= 12) {
              val yl = y.toLowerCase(Locale.ROOT)
              // cheap prefix gate before the quadratic JW
              if (xl.substring(0, 4) == yl.substring(0, 4) && jaroWinkler(xl, yl) >= 0.95)
                return 0.95
            }
          }
          j += 1
        }
      }
      i += 1
    }
    0.0
  }
}

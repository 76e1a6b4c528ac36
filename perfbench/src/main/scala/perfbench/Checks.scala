package perfbench

import org.apache.spark.sql.Row

import scala.util.hashing.MurmurHash3

/** Ground-truth pair counts of one answer: duplicate pairs touching the
  * selected entities (and how many of them the answer groups together),
  * and pairs the answer groups together (and how many are true).
  */
final case class Quality(truthPairs: Long, truthFound: Long, answerPairs: Long, answerTrue: Long) {
  def +(o: Quality): Quality = Quality(truthPairs + o.truthPairs, truthFound + o.truthFound,
    answerPairs + o.answerPairs, answerTrue + o.answerTrue)
  def recall: Double    = if (truthPairs == 0) 1.0 else truthFound.toDouble / truthPairs
  def precision: Double = if (answerPairs == 0) 1.0 else answerTrue.toDouble / answerPairs
}

object Quality { val Zero: Quality = Quality(0, 0, 0, 0) }

/** Outcome of checking one answer. `fingerprint` identifies its group set. */
final case class Verdict(errors: Seq[String], fingerprint: Int, groups: Long, quality: Quality)

/** Answer checks against plain SQL over the same temp views, and quality
  * against the generator's truth. Neither depends on the code under test.
  */
object Checks {

  private def members(s: String): Seq[Long] =
    if (s == null || s.isEmpty) Nil else s.split(',').toSeq.map(_.trim.toLong)

  /** SP: the groups' members cover every selected id; no id is in two groups. */
  def select(answer: Array[Row], selected: Set[Long], table: Table): Verdict = {
    val groups  = answer.toSeq.map(r => members(r.getAs[String]("members")))
    val missing = selected -- groups.flatten
    val errors  = disjoint(groups, table.name) ++
      (if (missing.isEmpty) Nil
       else Seq(s"${missing.size} selected ${table.name} ids not in any group, e.g. ${missing.take(3).mkString(",")}"))
    Verdict(errors, fingerprint(groups.map(_.sorted.mkString(","))), groups.size,
      quality(groups, selected, table))
  }

  /** Join: every (left, right) pair of the plain join is covered by an
    * output row whose `<t>_members` hold both ids; groups are disjoint.
    */
  def join(answer: Array[Row], pairs: Seq[(Long, Long)], l: Table, r: Table): Verdict = {
    val lg = answer.toSeq.map(row => members(row.getAs[String](s"${l.name}_members")))
    val rg = answer.toSeq.map(row => members(row.getAs[String](s"${r.name}_members")))
    val rowsOf = lg.zipWithIndex.flatMap { case (ms, i) => ms.map(_ -> i) }
      .groupBy(_._1).map { case (id, xs) => id -> xs.map(_._2) }
    val uncovered = pairs.filterNot { case (a, b) =>
      rowsOf.getOrElse(a, Nil).exists(i => rg(i).contains(b))
    }
    val (lGroups, rGroups) = (lg.distinct, rg.distinct)
    val errors = disjoint(lGroups, l.name) ++ disjoint(rGroups, r.name) ++
      (if (uncovered.isEmpty) Nil
       else Seq(s"${uncovered.size} joined pairs not covered, e.g. ${uncovered.take(3).mkString(",")}"))
    val fp = fingerprint(lg.zip(rg).map { case (a, b) => a.sorted.mkString(",") + "|" + b.sorted.mkString(",") })
    Verdict(errors, fp, lGroups.size + rGroups.size,
      quality(lGroups, pairs.map(_._1).toSet, l) + quality(rGroups, pairs.map(_._2).toSet, r))
  }

  private def disjoint(groups: Seq[Seq[Long]], table: String): Seq[String] = {
    val all = groups.flatten
    val shared = all.groupBy(identity).collect { case (id, xs) if xs.size > 1 => id }
    if (shared.isEmpty) Nil
    else Seq(s"${shared.size} $table ids in more than one group, e.g. ${shared.take(3).mkString(",")}")
  }

  private def fingerprint(groups: Seq[String]): Int = MurmurHash3.seqHash(groups.sorted)

  private def pairsOf(ids: Seq[Long]): Iterator[(Long, Long)] = {
    val s = ids.distinct.sorted
    for (i <- s.indices.iterator; j <- (i + 1 until s.size).iterator) yield (s(i), s(j))
  }

  private def quality(groups: Seq[Seq[Long]], selected: Set[Long], t: Table): Quality = {
    val truthPairs = selected.iterator.flatMap { id =>
      t.truth.get(id).map(c => t.clusters(c).filter(_ != id).map(m => (math.min(id, m), math.max(id, m))))
        .getOrElse(Nil)
    }.toSet
    val answerPairs = groups.iterator.flatMap(pairsOf).toSet
    val same = (p: (Long, Long)) => t.truth.get(p._1).exists(c => t.truth.get(p._2).contains(c))
    Quality(truthPairs.size, answerPairs.count(truthPairs.contains), answerPairs.size,
      answerPairs.count(same))
  }
}

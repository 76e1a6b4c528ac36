package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}

import scala.collection.mutable

/** One recorded call: `parent` is the enclosing span id, or -1. */
final case class Span(id: Int, parent: Int, stmt: String, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory spans recorded around the benchmark's calls into each
  * module. Spans of one statement share its id; nesting follows the call
  * stack of the single benchmark thread. Written out once at the end.
  */
final class Tracer {

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0
  var stmt: String = ""

  def span[T](name: String)(f: => T): T = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try f
    finally {
      spans += Span(id, parent, stmt, name, t0, System.nanoTime())
      stack = stack.tail
    }
  }

  /** Total duration (ns) of the spans called `name`. */
  def totalNs(name: String): Long = spans.iterator.filter(_.name == name).map(_.durNs).sum

  /** Self time per span name (ns): a span's duration minus the part of
    * its interval covered by its children.
    */
  def selfNs: Seq[(String, Long)] = {
    val children = spans.groupBy(_.parent)
    val self = spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(k => (k.startNs, k.endNs)).sortBy(_._1)
      var covered = 0L
      var (curS, curE) = (Long.MinValue, Long.MinValue)
      for ((ks, ke) <- kids) {
        if (ks > curE) { if (curE > curS) covered += curE - curS; curS = ks; curE = ke }
        else curE = math.max(curE, ke)
      }
      if (curE > curS) covered += curE - curS
      s.name -> (s.durNs - covered)
    }
    self.groupBy(_._1).map { case (n, xs) => n -> xs.map(_._2).sum }.toSeq.sortBy(-_._2)
  }

  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(
        s"""{"id":${s.id},"parent":${s.parent},"stmt":"${s.stmt}","name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}

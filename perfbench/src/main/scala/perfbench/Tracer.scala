package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One traced interval around a call into a layer.
  *
  * @param parent id of the enclosing span, -1 for a top-level span
  * @param query  id of the competitor call the span belongs to
  */
final class Span(val id: Int, val parent: Int, val query: Int, val name: String) {
  val startMs: Long = System.currentTimeMillis()
  val startNs: Long = System.nanoTime()
  private[perfbench] val gc0: Long = Tracer.gcMs()
  var endMs: Long = startMs
  var endNs: Long = startNs
  var gcMs: Long = 0L
  /** Layer outputs recorded at the span (rows, results, reached vertices). */
  val counts: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  /** Labels of the call (competitor, plan). */
  val tags: mutable.LinkedHashMap[String, String] = mutable.LinkedHashMap.empty

  def ms: Double = (endNs - startNs) / 1e6
  def group: String = s"perfbench-span-$id"

  def json: String = {
    def obj(kv: Iterable[(String, String)]) = kv.map { case (k, v) => s""""$k":$v""" }.mkString("{", ",", "}")
    obj(Seq("id" -> id.toString, "parent" -> parent.toString, "query" -> query.toString,
      "name" -> Json.str(name), "start_ms" -> startMs.toString, "end_ms" -> endMs.toString,
      "wall_ms" -> Json.num(ms), "gc_ms" -> gcMs.toString,
      "counts" -> obj(counts.map { case (k, v) => k -> Json.num(v) }),
      "tags" -> obj(tags.map { case (k, v) => k -> Json.str(v) })))
  }
}

/** Records spans from the benchmark's side of each layer call. Every span
  * runs its body under its own Spark job group, so a [[Ledger]] attributes
  * each job to the innermost open span. Spans stay in memory until the run
  * writes them out. Single-threaded: one client on the driver thread. */
final class Tracer(spark: SparkSession) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var open: List[Span] = Nil

  /** Run `body` inside a span; a top-level span takes its query id from
    * `query`, a nested one from its parent. */
  def span[A](name: String, query: Int = -1)(body: Span => A): A = {
    val s = open match {
      case p :: _ => new Span(spans.size, p.id, p.query, name)
      case Nil    => new Span(spans.size, -1, query, name)
    }
    spans += s
    open = s :: open
    spark.sparkContext.setJobGroup(s.group, name)
    try body(s)
    finally {
      s.endNs = System.nanoTime()
      s.endMs = System.currentTimeMillis()
      s.gcMs = Tracer.gcMs() - s.gc0
      open = open.tail
      open match {
        case p :: _ => spark.sparkContext.setJobGroup(p.group, p.name)
        case Nil    => spark.sparkContext.clearJobGroup()
      }
    }
  }

  def children(s: Span): Seq[Span] = spans.filter(_.parent == s.id).toSeq

  /** `s` and every span nested in it. */
  def subtree(s: Span): Seq[Span] = s +: children(s).flatMap(subtree)
}

object Tracer {
  /** Total collection time of every JVM garbage collector so far. */
  def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}

/** Minimal JSON writing for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  /** A finite number with all its digits; non-finite values become 0. */
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString
}

package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable.ListBuffer

/** Left-deep (DFS-shaped) enumeration engine — Algorithm 4 as a chain of
  * joins over an edge relation.
  *
  * The engine expands a partial-path DataFrame `(path: array<long>, last)`
  * one hop per level: level `i` joins partials of length `i-1` with the edge
  * relation, applies the hop-budget filter `dstDt <= k - i` (the paper's
  * `I_t(v, k - L(M) - 1)` lookup) and the simple-path check
  * `dst not in path` (Alg. 4 line 7), emits completed paths (`dst == t`) and
  * carries the rest forward. The result *set* equals the paper's DFS; only
  * emission order differs (level-synchronous vs depth-first).
  *
  * The edge relation decides the algorithm:
  *   - index edges (`indexRelation`): the Appendix-E extensions,
  *   - BC-DFS : the full edge list with `er_dt` = BFS distance-to-t over the
  *     whole graph (Algorithm 1's `B(v')` check) — see [[repro.baseline.BcDfs]].
  *
  * The wall-clock budget is checked between levels; a timed-out run reports
  * the results found so far (the paper's 120 s protocol, scaled).
  */
object LeftDeepEnum {

  /** Expected columns of `edgeRel`: `er_src`, `er_dst`, `er_dt`. */
  def run(spark: SparkSession, edgeRel: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig()): EnumResult = {
    val t0 = System.nanoTime()
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6

    val persisted = ListBuffer.empty[DataFrame]
    val collected = ListBuffer.empty[Seq[Long]]
    val perLevel = ListBuffer.empty[Long]
    var cum = 0L
    var responseMs: Option[Double] = None
    var timedOut = false
    var truncated = false
    var peakCells = 0L

    try {
      var partial = spark.range(1)
        .select(array(lit(q.s)).as("path"), lit(q.s).as("last"))
      var partialRows = 1L
      var level = 1
      while (level <= q.k && partialRows > 0 && !timedOut) {
        val tLevel = System.nanoTime()
        // One materialization per level, bounded by the row cap: the limit
        // stops an exploding join before it swamps the session. A capped
        // level marks the run truncated (result counts become lower bounds,
        // as under the paper's 120 s kill) but expansion continues on the
        // capped frontier until the wall-clock budget runs out — the DFS
        // keeps emitting results, just like the paper's killed runs do.
        val kept = partial.join(edgeRel, col("last") === col("er_src"))
          .where(col("er_dt") <= q.k - level &&
                 !array_contains(col("path"), col("er_dst")))
          .select(concat(col("path"), array(col("er_dst"))).as("path"),
                  col("er_dst").as("last"))
          .limit(cfg.maxLevelRows)
          .persist(StorageLevel.MEMORY_AND_DISK)
        persisted += kept
        val nKept = kept.count()
        if (nKept >= cfg.maxLevelRows) truncated = true

        val done = kept.where(col("last") === q.t).select("path")
        val nDone = done.count()
        perLevel += nDone
        cum += nDone
        if (cfg.collectPaths && nDone > 0)
          collected ++= done.collect().map(_.getSeq[Long](0).toSeq)

        if (level < q.k) {
          partial = kept.where(col("last") =!= q.t)
          partialRows = nKept - nDone
          peakCells = math.max(peakCells, partialRows * (level + 1))
        } else partialRows = 0L

        if (sys.env.contains("REPRO_DEBUG")) Console.err.println(
          f"[leftdeep] level=$level kept=$nKept done=$nDone " +
          f"${(System.nanoTime() - tLevel) / 1e6}%.0f ms")
        if (responseMs.isEmpty && cum >= cfg.responseTarget) responseMs = Some(elapsedMs)
        if (elapsedMs > cfg.timeBudgetMs) timedOut = true
        level += 1
      }
      // A run that found everything but fewer than `responseTarget` results
      // "responded" when it finished (paper convention for small queries).
      if (responseMs.isEmpty && !timedOut && !truncated) responseMs = Some(elapsedMs)

      EnumResult(cum, perLevel.toSeq, elapsedMs, responseMs, timedOut || truncated,
        peakCells, if (cfg.collectPaths) Some(collected.toSeq) else None)
    } finally persisted.foreach(_.unpersist(blocking = false))
  }

  /** The index as an edge relation for the dataflow engines. */
  def indexRelation(index: LightIndex): DataFrame =
    index.edges.select(
      col("src").as("er_src"), col("dst").as("er_dst"), col("dstDt").as("er_dt"))
}

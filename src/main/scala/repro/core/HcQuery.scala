package repro.core

/** A hop-constrained s-t path enumeration query `q(s, t, k)` (Section 2.1).
  * Paths have at most `k` edges; interior vertices are not in `{s, t}`.
  */
final case class HcQuery(s: Long, t: Long, k: Int) {
  require(s != t, s"s and t must be distinct (got $s)")
  require(k >= 2, s"the paper assumes k >= 2 (got $k)")
}

/** Runtime knobs for one enumeration run.
  *
  * @param timeBudgetMs  wall-clock cap, checked between expansion levels by
  *                      the dataflow engines and every few thousand steps by
  *                      the driver-side IDX enumerators (the paper caps each
  *                      query at 120 s; benches scale this down).
  * @param responseTarget #results after which "response time" is recorded
  *                      (the paper uses the first 1000 results).
  * @param collectPaths  materialize the result paths on the driver (tests);
  *                      benches leave this off and use counts only.
  * @param maxLevelRows  per-level row cap: a level is materialized through
  *                      `limit(maxLevelRows)`, so a single exploding join
  *                      cannot run unbounded (the wall-clock budget is only
  *                      checked between levels). Hitting the cap marks the
  *                      run timed out / truncated, like the paper's 120 s
  *                      kill. IDX-DFS materializes no level and ignores
  *                      it. Env default: REPRO_MAX_LEVEL_ROWS.
  */
final case class EnumConfig(
    timeBudgetMs: Long = 10000L,
    responseTarget: Long = 1000L,
    collectPaths: Boolean = false,
    maxLevelRows: Int = EnumConfig.defaultMaxLevelRows)

object EnumConfig {
  val defaultMaxLevelRows: Int =
    sys.env.get("REPRO_MAX_LEVEL_ROWS").map(_.toInt).getOrElse(200000)
}

/** Outcome of one enumeration run.
  *
  * @param results    number of paths found (within the budget if `timedOut`)
  * @param perLevel   paths found per length (index i = paths with i edges)
  * @param elapsedMs  total enumeration wall time
  * @param responseMs elapsed time when `responseTarget` cumulative results
  *                   existed (None if the run produced fewer and timed out)
  * @param timedOut   true if the budget expired before exhaustion
  * @param peakPartialCells  max #cells (rows x path length) of materialized
  *                   partial results — the paper's Table 7 "partial results"
  * @param paths      driver-collected result paths if requested
  */
final case class EnumResult(
    results: Long,
    perLevel: Seq[Long],
    elapsedMs: Double,
    responseMs: Option[Double],
    timedOut: Boolean,
    peakPartialCells: Long,
    paths: Option[Seq[Seq[Long]]]) {
  /** Results per second, from results found when the run ended (the paper
    * computes throughput the same way for timed-out queries). */
  def throughput: Double = if (elapsedMs <= 0) 0.0 else results * 1000.0 / elapsedMs
}

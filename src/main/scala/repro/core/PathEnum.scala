package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Which plan the optimizer executed, and why. */
final case class PlanInfo(
    plan: String,            // "DFS(prelim)" | "DFS(cost)" | "JOIN"
    prelimEstimate: Double,
    cut: Option[Int],
    tDfs: Option[Long],
    tJoin: Option[Long])

/** Outcome of a full PathEnum run (index build + optimize + enumerate). */
final case class PathEnumResult(
    enum: EnumResult,
    planInfo: PlanInfo,
    indexBuildMs: Double,
    optimizeMs: Double,
    indexEdges: Long,
    indexBytes: Long) {
  /** Total query time: preprocessing + optimization + enumeration (the
    * paper's query-time metric includes all three). */
  def queryTimeMs: Double = indexBuildMs + optimizeMs + enum.elapsedMs
}

/** Top-level PathEnum (Figure 2): build the light-weight index, run the
  * two-phase query optimizer, and enumerate with the chosen plan. Only the
  * index build runs Spark jobs; the optimizer and both enumerators run on
  * its driver-side CSR ([[IndexCsr]], [[IndexEnum]]).
  *
  * Phase 1: the preliminary estimator (Eq. 5) computes T̂ from the index's
  * vertex stats and `Offset` array; if T̂ <= τ the search space is small
  * and IDX-DFS runs directly (optimization would dominate such queries).
  * Phase 2: the full-fledged DP (Alg. 5) produces exact walk-count
  * cardinalities, the best cut i*, and the Eq.-1 costs T_DFS / T_JOIN; the
  * cheaper plan runs.
  *
  * τ defaults to `REPRO_TAU` (1e4): calibrated like the paper's 1e5 — the
  * time our substrate needs to find τ results is comparable to the
  * optimization time, so skipping optimization below τ never hurts.
  */
object PathEnum {

  val defaultTau: Double = sys.env.get("REPRO_TAU").map(_.toDouble).getOrElse(1e4)

  def run(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
          cfg: EnumConfig = EnumConfig(), tau: Double = defaultTau): PathEnumResult = {
    val index = LightIndex.build(spark, graphEdges, q)
    try runOnIndex(spark, index, q, cfg, tau)
    finally index.unpersist()
  }

  /** Run with a pre-built index (benches reuse the index across variants). */
  def runOnIndex(spark: SparkSession, index: LightIndex, q: HcQuery,
                 cfg: EnumConfig = EnumConfig(), tau: Double = defaultTau): PathEnumResult = {
    val tOpt0 = System.nanoTime()
    val tHat = Estimator.preliminary(spark, index)
    if (tHat <= tau) {
      val optMs = (System.nanoTime() - tOpt0) / 1e6
      val res = IndexEnum.dfs(index.csr, cfg)
      PathEnumResult(res, PlanInfo("DFS(prelim)", tHat, None, None, None),
        index.buildMs, optMs, index.edgeCount, index.memoryBytes)
    } else {
      val dp = Estimator.full(spark, index)
      val optMs = (System.nanoTime() - tOpt0) / 1e6
      if (dp.tDfs <= dp.tJoin) {
        val res = IndexEnum.dfs(index.csr, cfg)
        PathEnumResult(res,
          PlanInfo("DFS(cost)", tHat, Some(dp.bestCut), Some(dp.tDfs), Some(dp.tJoin)),
          index.buildMs, optMs, index.edgeCount, index.memoryBytes)
      } else {
        val res = IndexEnum.join(index.csr, dp.bestCut, cfg)
        PathEnumResult(res,
          PlanInfo("JOIN", tHat, Some(dp.bestCut), Some(dp.tDfs), Some(dp.tJoin)),
          index.buildMs, optMs, index.edgeCount, index.memoryBytes)
      }
    }
  }

  /** IDX-DFS as a standalone competitor (Table 3 column). */
  def idxDfs(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
             cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val index = LightIndex.build(spark, graphEdges, q)
    try {
      val res = IndexEnum.dfs(index.csr, cfg)
      PathEnumResult(res, PlanInfo("DFS(forced)", -1, None, None, None),
        index.buildMs, 0.0, index.edgeCount, index.memoryBytes)
    } finally index.unpersist()
  }

  /** IDX-JOIN as a standalone competitor (Table 3 column): always optimizes
    * the cut with the full DP and runs the bushy plan. */
  def idxJoin(spark: SparkSession, graphEdges: DataFrame, q: HcQuery,
              cfg: EnumConfig = EnumConfig()): PathEnumResult = {
    val index = LightIndex.build(spark, graphEdges, q)
    try {
      val dp = Estimator.full(spark, index)
      val res = IndexEnum.join(index.csr, dp.bestCut, cfg)
      PathEnumResult(res,
        PlanInfo("JOIN(forced)", -1, Some(dp.bestCut), Some(dp.tDfs), Some(dp.tJoin)),
        index.buildMs, dp.optMs, index.edgeCount, index.memoryBytes)
    } finally index.unpersist()
  }
}

package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.{BcDfs, BcJoin}
import repro.core.{EnumConfig, HcQuery, PathEnum, PathEnumResult}

/** Query settings, passed explicitly so no `REPRO_*` environment default
  * reaches the program. */
object Settings {
  val k = 6
  /** τ of the two-phase optimizer (PathEnum's documented default). */
  val tau = 1e4
  /** Per-query budget and per-level row cap; both far above what the
    * seeded workloads need, so a kill or truncation is a failure. */
  val cfg: EnumConfig = EnumConfig(timeBudgetMs = 60000L, responseTarget = 1000L,
    collectPaths = false, maxLevelRows = 200000)
  val cores = 4
  val master = s"local[$cores]"
  /** Graph and query generation are repeated this many times in set-up;
    * `setup_s` takes the median. */
  val setupReps = 3
  /** Queries per run. One query per competitor, warmed up once and timed
    * once, is what the benchmark's time budget allows on 4 cores. */
  val queries = 1
  /** BC-JOIN's fixed cut ⌈k/2⌉ (clamped to 1..k-1, as in [[BcJoin]]). */
  def bcCut(k: Int): Int = math.min(k - 1, math.max(1, math.ceil(k / 2.0).toInt))
}

/** A Table 3 competitor, called through its public entry point. */
final case class Competitor(name: String, run: (SparkSession, DataFrame, HcQuery) => PathEnumResult)

object Competitor {
  val all: Seq[Competitor] = Seq(
    Competitor("BC-DFS", (sp, e, q) => BcDfs.run(sp, e, q, Settings.cfg)),
    Competitor("BC-JOIN", (sp, e, q) => BcJoin.run(sp, e, q, Settings.cfg)),
    Competitor("IDX-DFS", (sp, e, q) => PathEnum.idxDfs(sp, e, q, Settings.cfg)),
    Competitor("IDX-JOIN", (sp, e, q) => PathEnum.idxJoin(sp, e, q, Settings.cfg)),
    Competitor("PathEnum", (sp, e, q) => PathEnum.run(sp, e, q, Settings.cfg, Settings.tau)))

  def apply(name: String): Competitor = all.find(_.name == name).get
}

/** A seeded workload: a GraphSuite graph, QueryGen queries drawn from the
  * run's seed, and the competitors each query is sent to. */
final case class Workload(name: String, graph: String, competitors: Seq[Competitor])

object Workload {
  val all: Seq[Workload] = Seq(
    // Declared in BENCHMARK.json.
    //
    // Small dense graph with 10^4-10^5 results per query; the full DP runs
    // and picks IDX-JOIN, so the estimator, JoinEnum and plan choice dominate.
    Workload("ep-dense-k6", "ep", Seq(Competitor("PathEnum"))),
    // The two BC baselines on gg: a relation over the whole graph from one
    // BFS, then both enumerators over it. No index, estimator or optimizer
    // runs, so changes confined to those must leave it unchanged.
    Workload("gg-bc-k6", "gg", Seq(Competitor("BC-DFS"), Competitor("BC-JOIN"))),
    // Run by hand; together with the two above a run of each no longer fits
    // the time budget.
    //
    // Largest Table 3 graph whose index builds in seconds; every query takes
    // the preliminary-estimator path to IDX-DFS, so BFS and the index do the
    // work and the DP and JoinEnum do none.
    Workload("up-sparse-k6", "up", Seq(Competitor("PathEnum"))),
    // The Table 3 row: all five competitors on the same gg query (~100 s).
    Workload("gg-table3-k6", "gg", Competitor.all))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

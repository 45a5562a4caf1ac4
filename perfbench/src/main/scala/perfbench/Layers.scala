package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.SparkContext
import scala.jdk.CollectionConverters._

/** Per-layer metrics of a traced run, from its spans and the [[Ledger]].
  * Unless noted, a metric is the median over the spans of its layer, one
  * span per competitor call in which the layer ran, and 0 on a workload
  * where the layer never runs. */
object Layers {

  /** Competitors whose enumeration spans get a suffixed copy of the
    * `leftdeep.*` / `joinenum.*` metrics. */
  val leftDeepCompetitors: Seq[String] = Seq("BC-DFS", "IDX-DFS", "PathEnum")
  val joinCompetitors: Seq[String] = Seq("BC-JOIN", "IDX-JOIN", "PathEnum")

  def metrics(sc: SparkContext, tr: Tracer, ledger: Ledger, in: Inputs,
              untraced: Seq[Call], traced: Seq[Call]): Seq[(String, Metric)] = {
    val stats = ledger.snapshot(sc)
    def g(s: Span): GroupStats = stats.getOrElse(s.group, new GroupStats)
    def sub(s: Span): Seq[GroupStats] = tr.subtree(s).map(g)
    def jobs(s: Span): Double = sub(s).map(_.jobs).sum.toDouble
    def gapMs(s: Span): Double =
      (s.endMs - s.startMs) - Stats.covered(sub(s).flatMap(_.jobIntervals), s.startMs, s.endMs).toDouble
    def named(n: String): Seq[Span] = tr.spans.filter(_.name == n).toSeq
    def inQuery(n: String): Seq[Span] = named(n).filter(s => s.parent >= 0 && tr.spans(s.parent).name == "query")
    def med(xs: Seq[Double], unit: String) = Stats.medianMetric(xs, unit)

    val queries = named("query")
    val competitorOf = queries.map(q => q.query -> q.tags("competitor")).toMap
    val refOf = traced.map(c => c.id -> c.ref.toDouble).toMap
    val probes = named("probe").map(p => p.query -> p).toMap
    def probeChild(id: Int, n: String): Seq[Span] = probes.get(id).toSeq.flatMap(tr.children).filter(_.name == n)
    def bfs(id: Int): Seq[Span] = probeChild(id, "bfs-s") ++ probeChild(id, "bfs-t")
    def bfsMs(id: Int): Double = bfs(id).map(_.ms).sum

    val setup = Seq(
      "setup.graph_ms" -> med(named("setup.graph").map(_.ms), "ms"),
      "setup.querygen_ms" -> med(named("setup.querygen").map(_.ms), "ms"),
      "setup.querygen_jobs" -> med(named("setup.querygen").map(jobs), "count"),
      "setup.warmup_ms" -> med(named("setup.warmup").map(_.ms), "ms"))

    val withIndex = probes.keys.toSeq.sorted
    val bfsM = Seq(
      "bfs.ms" -> med(withIndex.map(bfsMs), "ms"),
      "bfs.jobs" -> med(withIndex.map(id => bfs(id).map(jobs).sum), "count"),
      "bfs.reached" -> med(withIndex.map(id => probes(id).counts("reached")), "count"),
      "bfs.gap_ms" -> med(withIndex.map(id => bfs(id).map(gapMs).sum), "ms"))

    val index = inQuery("index")
    val indexM = Seq(
      "index.ms" -> med(index.map(_.ms), "ms"),
      "index.jobs" -> med(index.map(jobs), "count"),
      "index.join_ms" -> med(index.map(s => s.ms - bfsMs(s.query)), "ms"),
      "index.edges" -> med(index.map(_.counts("edges")), "count"),
      "index.keep_ratio" -> med(index.map(_.counts("edges") / in.edgeCount), "ratio"),
      "index.shuffle_mb" -> med(index.map(s => sub(s).map(_.shuffleBytes).sum / 1e6), "MB"))

    val dps = inQuery("dp")
    val allDp = dps ++ named("alt-dp")
    val estimatorM = Seq(
      "prelim.ms" -> med(inQuery("prelim").map(_.ms), "ms"),
      "prelim.jobs" -> med(inQuery("prelim").map(jobs), "count"),
      "dp.ms" -> med(dps.map(_.ms), "ms"),
      "dp.jobs" -> med(dps.map(jobs), "count"),
      "dp.walk_path_ratio" -> med(allDp.map(s => Stats.ratio(s.counts("walks"), refOf(s.query))), "ratio"))

    // Optimizer: PathEnum calls only.
    val pe = queries.filter(_.tags("competitor") == "PathEnum")
    def childMs(q: Span, names: Set[String]): Double = tr.children(q).filter(c => names(c.name)).map(_.ms).sum
    val regrets = pe.flatMap { q =>
      val chosen = childMs(q, Set("leftdeep", "joinenum"))
      probeChild(q.query, "alt-enum").map(alt => Stats.ratio(chosen, math.min(chosen, alt.ms)))
    }
    val planM = Seq(
      "plan.join_frac" -> Metric(Stats.ratio(pe.count(_.tags("plan") == "JOIN"), pe.size), "ratio", pe.size),
      "plan.regret" -> med(regrets, "ratio"),
      "optimize.share" -> med(pe.map(q => Stats.ratio(childMs(q, Set("prelim", "dp")), q.ms)), "ratio"))

    def enumMetrics(layer: String, competitors: Seq[String]): Seq[(String, Metric)] = {
      val spans = inQuery(layer)
      val byCompetitor = competitors.map(c => c -> spans.filter(s => competitorOf(s.query) == c))
      def m(field: String, unit: String)(f: Span => Double) =
        Stats.suffixed(s"$layer.$field", spans, byCompetitor)(ss => med(ss.map(f), unit))
      def shuffle(s: Span): Double = sub(s).map(_.shuffleRecords).sum.toDouble
      m("ms", "ms")(_.ms) ++
      m("jobs", "count")(jobs) ++
      m("ms_per_job", "ms")(s => Stats.ratio(s.ms, jobs(s))) ++
      m("shuffle_records", "count")(shuffle) ++
      m("yield", "ratio")(s => Stats.ratio(s.counts("results"), shuffle(s))) ++
      m("peak_mb", "MB")(_.counts("peak_cells") * 8 / 1e6)
    }

    val bc = inQuery("bcrel")
    val bcM = Seq(
      "bcrel.ms" -> med(bc.map(_.ms), "ms"),
      "bcrel.jobs" -> med(bc.map(jobs), "count"))

    val qTasks = queries.flatMap(sub)
    val sparkM = Seq(
      "spark.task_busy_ms" -> med(queries.map(q => sub(q).map(_.taskBusyMs).sum.toDouble), "ms"),
      "spark.core_busy_frac" -> med(queries.map(q =>
        Stats.ratio(sub(q).map(_.taskBusyMs).sum.toDouble, q.ms * Settings.cores)), "ratio"),
      "spark.gap_ms" -> med(queries.map(gapMs), "ms"),
      "spark.tasks_per_job" -> Metric(Stats.ratio(qTasks.map(_.tasks).sum.toDouble, qTasks.map(_.jobs).sum.toDouble),
        "count", queries.size),
      "spark.failed_tasks" -> Metric(stats.values.map(_.failedTasks).sum.toDouble, "count", queries.size))

    val tracedMedian = Stats.median(queries.map(_.ms))
    val untracedMedian = Stats.median(untraced.map(_.ms))
    val jvmM = Seq(
      "jvm.gc_ms" -> med(queries.map(_.gcMs.toDouble), "ms"),
      "jvm.heap_peak_mb" -> Metric(heapPeakMb(), "MB", 1),
      "trace.coverage" -> med(queries.map(q => Stats.ratio(tr.children(q).map(_.ms).sum, q.ms)), "ratio"),
      "trace.overhead_frac" -> Metric(Stats.ratio(tracedMedian, untracedMedian) - 1, "ratio", queries.size))

    setup ++ bfsM ++ indexM ++ estimatorM ++ planM ++
      enumMetrics("leftdeep", leftDeepCompetitors) ++ enumMetrics("joinenum", joinCompetitors) ++
      bcM ++ sparkM ++ jvmM
  }

  /** Peak heap use since the JVM started, summed over the heap pools. */
  def heapPeakMb(): Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum / 1e6
}

package perfbench

/** End-to-end metrics of a timed pass, their printing and the result line. */
object Report {

  /** The end-to-end metrics the result line carries (BENCHMARK.json
    * `end_to_end`). The others are printed only: `failed_frac` is 0 on every
    * seeded workload (the line's `failed` field carries it), `results_per_s`
    * follows the result count of the seed's query (several-fold apart between
    * seeds), and the per-competitor medians exist only where a workload has
    * more than one competitor. */
  val gatedNames: Seq[String] =
    Seq("setup_s", "query_ms.p50", "queries_per_s", "response_ms.p50", "jobs_per_query")

  def endToEnd(calls: Seq[Call], loopS: Double, setupS: Double, w: Workload): Seq[(String, Metric)] = {
    val n = calls.size
    val perCompetitor =
      if (w.competitors.size < 2) Seq.empty
      else w.competitors.map { c =>
        s"query_ms.p50.${c.name}" -> Stats.medianMetric(calls.filter(_.competitor == c.name).map(_.ms), "ms")
      }
    Seq(
      "setup_s" -> Metric(setupS, "s", Settings.setupReps),
      "query_ms.p50" -> Stats.medianMetric(calls.map(_.ms), "ms"),
      "queries_per_s" -> Metric(n / loopS, "1/s", n),
      "response_ms.p50" -> Stats.medianMetric(calls.map(_.responseMs), "ms"),
      "results_per_s" -> Metric(calls.map(_.results.max(0L)).sum * 1000.0 / calls.map(_.ms).sum, "1/s", n),
      "jobs_per_query" -> Metric(Stats.mean(calls.map(_.jobs.toDouble)), "count", n),
      "failed_frac" -> Metric(Stats.failedFrac(n, calls.count(_.failed)), "ratio", n),
    ) ++ perCompetitor
  }

  def gated(ms: Seq[(String, Metric)]): Seq[(String, Metric)] =
    gatedNames.map(n => n -> ms.find(_._1 == n).get._2)

  def print(title: String, ms: Seq[(String, Metric)]): Unit = {
    println(s"$title metrics:")
    ms.foreach { case (name, m) => println(f"  $name%-32s ${m.value}%14.4f ${m.unit}%-6s n=${m.samples}") }
  }

  def json(correct: Boolean, attempted: Int, failed: Int, ms: Seq[(String, Metric)]): String = {
    val body = ms.map { case (name, m) =>
      s"${Json.str(name)}: {\"value\": ${Json.num(m.value)}, \"unit\": ${Json.str(m.unit)}}"
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}

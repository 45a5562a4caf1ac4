package perfbench

/** One reported number: value, unit and the number of samples behind it. */
final case class Metric(value: Double, unit: String, samples: Int)

/** Aggregation rules shared by the end-to-end and the per-layer report. */
object Stats {

  /** Median; the mean of the two middle values for an even count, 0 for no
    * samples (a layer that never ran on a workload reports 0). */
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Share of attempted calls that failed; 0 when nothing was attempted. */
  def failedFrac(attempted: Int, failed: Int): Double =
    if (attempted == 0) 0.0 else failed.toDouble / attempted

  /** `base` plus, for each key of `byKey`, `base.<key>` — the per-competitor
    * suffix of the Table 3 workload (`leftdeep.ms.BC-DFS`). */
  def suffixed[A](base: String, all: Seq[A], byKey: Seq[(String, Seq[A])])
                 (f: Seq[A] => Metric): Seq[(String, Metric)] =
    (base -> f(all)) +: byKey.map { case (k, xs) => s"$base.$k" -> f(xs) }

  def medianMetric(xs: Seq[Double], unit: String): Metric = Metric(median(xs), unit, xs.size)

  /** Ratio that is 0 when its base is 0. */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  /** Length of the union of `intervals` clipped to `[from, to]`. */
  def covered(intervals: Seq[(Long, Long)], from: Long, to: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, from), math.min(b, to)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue
    var curB = Long.MinValue
    for ((a, b) <- clipped) {
      if (a > curB) {
        if (curB > curA) total += curB - curA
        curA = a; curB = b
      } else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }
}

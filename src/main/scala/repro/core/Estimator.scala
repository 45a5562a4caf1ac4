package repro.core

import org.apache.spark.sql.SparkSession

/** Cost-model cardinalities computed by the full-fledged estimator
  * (Algorithm 5). All counts are **walk** counts over the padded join model,
  * which is exactly what Equations 6/7 compute.
  *
  * @param forward  f(i) = |Q[0:i]| — walks from s of length i (with padding),
  *                 for i = 0..k (f(0) = 1, f(k) = |Q|)
  * @param backward b(i) = |Q[i:k]| — walks from position i to t, i = 0..k
  *                 (b(k) = 1, b(0) = |Q|)
  * @param optMs    time spent running the DP
  *
  * Counts and costs saturate at `Long.MaxValue` instead of wrapping.
  */
final case class DpEstimate(forward: Seq[Long], backward: Seq[Long], optMs: Double) {
  import DpEstimate.{satAdd, satSum}
  val k: Int = forward.length - 1

  /** Cost of the left-deep plan (Alg. 4): T_DFS = Σ_{1<=i<=k} |Q[0:i]|. */
  def tDfs: Long = satSum((1 to k).map(forward))

  /** Cut position i* minimizing |Q[0:i]| + |Q[i:k]| over 1..k-1 (Alg. 5
    * line 11; the endpoints degenerate to the left-deep plan). */
  def bestCut: Int = (1 until k).minBy(i => satAdd(forward(i), backward(i)))

  /** Cost of the bushy plan cut at i* (Section 6.3):
    * T_JOIN = |Q| + Σ_{1<=i<=i*} |Q[0:i]| + Σ_{i*<=i<=k} |Q[i:k]|. */
  def tJoin: Long = {
    val i = bestCut
    satSum(forward(k) +: ((1 to i).map(forward) ++ (i to k).map(backward)))
  }
}

object DpEstimate {
  /** `a + b` for nonnegative counts, saturating at `Long.MaxValue`. */
  def satAdd(a: Long, b: Long): Long = if (a > Long.MaxValue - b) Long.MaxValue else a + b

  def satSum(xs: Iterable[Long]): Long = xs.foldLeft(0L)(satAdd)
}

/** The two-phase cardinality estimation of Section 6.2, on the driver-side
  * index ([[IndexCsr]]); neither estimator runs a Spark job. `spark` is
  * unused and kept so callers need not know where the index lives.
  *
  * The preliminary estimator needs only the `(ds, dt)` stats and the
  * `Offset` array and costs O(k x |X|) (Eq. 5). The full-fledged estimator
  * is the dynamic program of Algorithm 5 over the dt-sorted neighbor
  * prefixes in each direction; because the index is exact for the query,
  * its level sums are *exact padded-walk counts* (the tests check
  * `forward(k) == backward(0)` and both against a reference counter).
  */
object Estimator {
  import DpEstimate.{satAdd, satSum}

  /** Preliminary estimate T̂ of the search-space size (Equation 5):
    * T̂ = Σ_{0<=i<=k-1} Π_{0<=j<=i} γ̂_j with
    * γ̂_i = avg over v in C_i of |I_t(v, k-i-1)|.
    */
  def preliminary(spark: SparkSession, index: LightIndex): Double = {
    val g = index.csr
    val k = g.query.k
    val gamma = (0 until k).map { i =>
      var ci = 0L
      var out = 0L
      for (v <- 0 until g.n if g.ds(v) <= i && g.dt(v) <= k - i) {
        ci += 1
        out += g.offset(v, k - i - 1) - g.start(v)
      }
      if (ci == 0) 0.0 else out.toDouble / ci
    }
    (0 until k).map(i => (0 to i).map(gamma).product).sum
  }

  /** Full-fledged DP (Algorithm 5): per-level walk counts in both
    * directions over the index padded with the `(t,t)` self-loop, in
    * O(k x |I|). Position `i` admits `v` when `ds(v) <= i` and
    * `dt(v) <= k - i` (Proposition 4.3); the loop `(t,t)` steps from `i` to
    * `i + 1` when `ds(t) <= i`.
    */
  def full(spark: SparkSession, index: LightIndex): DpEstimate = {
    val t0 = System.nanoTime()
    val g = index.csr
    val k = g.query.k
    def admits(v: Int, i: Int): Boolean = g.ds(v) <= i && g.dt(v) <= k - i
    def padAt(i: Int): Boolean = g.t >= 0 && g.ds(g.t) <= i

    // Backward: c_k^k(t) = 1; c_k^i(v) = Σ_{v' in I_t(v, k-i-1)} c_k^{i+1}(v').
    val backward = new Array[Long](k + 1)
    backward(k) = 1L
    var next = new Array[Long](g.n)
    if (g.t >= 0) next(g.t) = 1L
    for (i <- (k - 1) to 0 by -1) {
      val cur = new Array[Long](g.n)
      for (v <- 0 until g.n if admits(v, i)) {
        var c = 0L
        for (p <- g.start(v) until g.offset(v, k - i - 1)) c = satAdd(c, next(g.nbr(p)))
        cur(v) = c
      }
      if (padAt(i)) cur(g.t) = next(g.t) // t has no out-edges in the index
      backward(i) = satSum(cur)
      next = cur
    }

    // Forward: c_0^0(s) = 1; walks from s reaching v at position i.
    val forward = new Array[Long](k + 1)
    forward(0) = 1L
    var prev = new Array[Long](g.n)
    if (g.s >= 0) prev(g.s) = 1L
    for (i <- 1 to k) {
      val cur = new Array[Long](g.n)
      for (v <- 0 until g.n if prev(v) > 0 && admits(v, i - 1); p <- g.start(v) until g.offset(v, k - i))
        cur(g.nbr(p)) = satAdd(cur(g.nbr(p)), prev(v))
      if (padAt(i - 1)) cur(g.t) = satAdd(cur(g.t), prev(g.t))
      forward(i) = satSum(cur)
      prev = cur
    }

    DpEstimate(forward.toSeq, backward.toSeq, (System.nanoTime() - t0) / 1e6)
  }
}

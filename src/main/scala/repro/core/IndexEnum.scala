package repro.core

import scala.collection.mutable.ArrayBuffer

/** IDX-DFS (Algorithm 4) and IDX-JOIN (Algorithm 6) on the driver-side
  * index ([[IndexCsr]]); neither runs a Spark job.
  *
  * Every step looks up `I_t(v, b)` as a prefix of `v`'s dt-sorted
  * neighbors: a vertex at position `i` of a path may step only to neighbors
  * with `dt <= k - i - 1`, so every step stays on some s-t walk of at most
  * `k` edges and only the simple-path check can reject it.
  *
  * Kill protocol (the paper's 120 s kill, scaled): the wall-clock budget is
  * checked every few thousand steps, and a killed run reports what it
  * found, flagged `timedOut`. IDX-JOIN also materializes its halves level by
  * level and caps each level and the join at `maxLevelRows` rows, keeping
  * the first rows in a fixed order, so a truncated run is deterministic.
  */
object IndexEnum {

  /** Steps between two reads of the clock. */
  private val checkEvery = 4096

  /** Budget clock shared by both enumerators. */
  private final class Clock(budgetMs: Long) {
    private val t0 = System.nanoTime()
    private var steps = 0L
    var expired = false
    def elapsedMs: Double = (System.nanoTime() - t0) / 1e6
    /** Counts one step; true once the budget has run out. */
    def tick(): Boolean = {
      if (steps % checkEvery == 0 && elapsedMs >= budgetMs) expired = true
      steps += 1
      expired
    }
  }

  /** IDX-DFS: a depth-first search holding one partial path. Its partial
    * results are that stack, so `peakPartialCells` is the longest partial
    * path, and `maxLevelRows` does not apply. */
  def dfs(g: IndexCsr, cfg: EnumConfig = EnumConfig()): EnumResult = {
    val clock = new Clock(cfg.timeBudgetMs)
    val k = g.query.k
    val path = new Array[Int](k + 1)
    val onPath = new Array[Boolean](g.n)
    val perLevel = new Array[Long](k)
    val paths = ArrayBuffer.empty[Seq[Long]]
    var results = 0L
    var responseMs: Option[Double] = None
    var peak = 0

    // Extends path(0..len), which ends at a vertex other than t.
    def extend(len: Int): Unit = {
      val u = path(len)
      var p = g.start(u)
      val end = g.offset(u, k - len - 1)
      while (p < end && !clock.tick()) {
        val v = g.nbr(p)
        path(len + 1) = v
        if (v == g.t) {
          results += 1
          perLevel(len) += 1
          if (cfg.collectPaths) paths += path.take(len + 2).map(g.ids).toSeq
          if (responseMs.isEmpty && results >= cfg.responseTarget) responseMs = Some(clock.elapsedMs)
        } else if (!onPath(v)) {
          onPath(v) = true
          peak = math.max(peak, len + 2)
          extend(len + 1)
          onPath(v) = false
        }
        p += 1
      }
    }

    if (g.s >= 0) {
      path(0) = g.s
      onPath(g.s) = true
      peak = 1
      extend(0)
    }
    val elapsed = clock.elapsedMs
    // A run that found everything but fewer than `responseTarget` results
    // "responded" when it finished (paper convention for small queries).
    if (responseMs.isEmpty && !clock.expired) responseMs = Some(elapsed)
    EnumResult(results, perLevel.toSeq, elapsed, responseMs, clock.expired, peak,
      if (cfg.collectPaths) Some(paths.toSeq) else None)
  }

  /** IDX-JOIN cut at `cut` (in `1 .. k-1`): `Q[0:cut]` is materialized as
    * the partial paths of exactly `cut` hops from s and `Q[cut:k]` as those
    * of exactly `k - cut` hops from the distinct cut vertices, both over the
    * index padded with the `(t,t)` self-loop (Section 3.1) so paths shorter
    * than `k` survive. The halves are hash-joined on the cut vertex, trailing
    * t-padding is stripped and tuples that are not simple paths are dropped
    * (the paper checks this "when performing the join operation"). */
  def join(g: IndexCsr, cut: Int, cfg: EnumConfig = EnumConfig()): EnumResult = {
    val k = g.query.k
    require(cut >= 1 && cut < k, s"cut must be in [1, k-1], got $cut")
    val clock = new Clock(cfg.timeBudgetMs)
    val cap = cfg.maxLevelRows
    def collected(ps: => Seq[Seq[Long]]) = if (cfg.collectPaths) Some(ps) else None
    def killed(peakCells: Long) =
      EnumResult(0L, Seq.empty, clock.elapsedMs, None, timedOut = true, peakCells, collected(Seq.empty))

    // Expands `seeds` (partial paths ending at global position `from`) to
    // position `to`. Returns the rows, the peak materialized cell count and
    // whether a level hit the cap; None once the budget has run out.
    def half(seeds: Seq[Array[Int]], from: Int, to: Int): Option[(Seq[Array[Int]], Long, Boolean)] = {
      var level = seeds
      var peak = 0L
      var truncated = false
      var pos = from + 1
      while (pos <= to && level.nonEmpty) {
        val next = ArrayBuffer.empty[Array[Int]]
        val rows = level.iterator
        while (rows.hasNext && next.length < cap) {
          val row = rows.next()
          val u = row.last
          if (u == g.t) {
            if (clock.tick()) return None
            next += (row :+ u) // the (t,t) padding step
          } else {
            var p = g.start(u)
            val end = g.offset(u, k - pos)
            while (p < end && next.length < cap) {
              if (clock.tick()) return None
              val v = g.nbr(p)
              if (!row.contains(v)) next += (row :+ v)
              p += 1
            }
          }
        }
        if (next.length >= cap) truncated = true
        peak = math.max(peak, next.length.toLong * (pos - from + 1))
        level = next.toSeq
        pos += 1
      }
      Some((level, peak, truncated))
    }

    val seedA = if (g.s >= 0) Seq(Array(g.s)) else Seq.empty
    half(seedA, 0, cut) match {
      case None => killed(0L)
      case Some((ra, peakA, truncA)) if ra.isEmpty =>
        EnumResult(0L, Seq.empty, clock.elapsedMs, Some(clock.elapsedMs), timedOut = truncA,
          peakA, collected(Seq.empty))
      case Some((ra, peakA, truncA)) =>
        val cellsA = ra.size.toLong * (cut + 1)
        // Seeds for Q[cut:k]: the distinct cut vertices (Alg. 6 line 3).
        half(ra.map(_.last).distinct.map(Array(_)), cut, k) match {
          case None => killed(cellsA + peakA)
          case Some((rbAll, peakB, truncB)) =>
            val rb = rbAll.filter(_.last == g.t)
            val cells = cellsA + math.max(rb.size.toLong * (k - cut + 1), peakB)
            val byCut = rb.groupBy(_.head)
            val paths = ArrayBuffer.empty[Seq[Long]]
            var n = 0L
            val as = ra.iterator
            while (as.hasNext && n < cap && !clock.expired) {
              val a = as.next()
              val bs = byCut.getOrElse(a.last, Seq.empty).iterator
              while (bs.hasNext && n < cap && !clock.tick()) {
                val full = a ++ bs.next().tail
                val path = full.take(full.indexOf(g.t) + 1)
                if (path.distinct.length == path.length) {
                  n += 1
                  if (cfg.collectPaths) paths += path.toSeq.map(g.ids)
                }
              }
            }
            // The paper reports no response time for join-based methods
            // (results only exist after the final join) — mirror that.
            EnumResult(n, Seq.empty, clock.elapsedMs, None,
              clock.expired || n >= cap || truncA || truncB, cells, collected(paths.toSeq))
        }
    }
  }
}

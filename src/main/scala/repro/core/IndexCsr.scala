package repro.core

/** The light-weight index in the paper's own Algorithm-3 layout, held on the
  * driver.
  *
  * The vertices of `X` (`ds + dt <= k`) are renumbered `0 until n` in order
  * of their graph id; `ids(v)` maps back. The out-neighbors of `v` are
  * `nbr(start(v) until start(v + 1))`, sorted by `dt` (the paper's
  * `Neighbors` array), and `offset(v, b)` ends the prefix of neighbors with
  * `dt <= b` (the paper's `Offset` array), so
  * `I_t(v, b) = nbr(start(v) until offset(v, b))` is a slice, not a scan.
  *
  * A `(src, dst)` pair listed more than once in the input is one edge here,
  * so repeated input edges cannot yield repeated paths.
  */
final class IndexCsr private (
    val query: HcQuery,
    val ids: Array[Long],
    val ds: Array[Int],
    val dt: Array[Int],
    val start: Array[Int],
    val nbr: Array[Int],
    offsets: Array[Int]) {

  val n: Int = ids.length
  def edgeCount: Int = nbr.length

  /** Renumbered s and t, or -1 for a vertex outside `X`. */
  val s: Int = IndexCsr.vertex(ids, query.s)
  val t: Int = IndexCsr.vertex(ids, query.t)

  /** End of the `dt <= b` prefix of `v`'s neighbors, for `b` in `0..k`. */
  def offset(v: Int, b: Int): Int = offsets(v * (query.k + 1) + b)
}

object IndexCsr {

  /** Position of graph id `id` in the sorted `ids`, or -1 when absent. */
  private def vertex(ids: Array[Long], id: Long): Int =
    math.max(-1, java.util.Arrays.binarySearch(ids, id))

  /** @param vertices `(v, ds, dt)` of every vertex in `X`
    * @param edges    `(src, dst)` of every index edge; both ends in `X` */
  def apply(query: HcQuery, vertices: Seq[(Long, Int, Int)], edges: Seq[(Long, Long)]): IndexCsr = {
    val k = query.k
    val vs = vertices.sortBy(_._1).toArray
    val ids = vs.map(_._1)
    val ds = vs.map(_._2)
    val dt = vs.map(_._3)
    val adj = edges.iterator.map { case (a, b) => (vertex(ids, a), vertex(ids, b)) }.toArray.distinct
      .sortBy { case (a, b) => (a, dt(b), b) }

    val n = ids.length
    val start = new Array[Int](n + 1)
    adj.foreach { case (a, _) => start(a + 1) += 1 }
    for (v <- 0 until n) start(v + 1) += start(v)
    val nbr = adj.map(_._2)

    val offsets = new Array[Int](n * (k + 1))
    for (v <- 0 until n) {
      var p = start(v)
      for (b <- 0 to k) {
        while (p < start(v + 1) && dt(nbr(p)) <= b) p += 1
        offsets(v * (k + 1) + b) = p
      }
    }
    new IndexCsr(query, ids, ds, dt, start, nbr, offsets)
  }
}

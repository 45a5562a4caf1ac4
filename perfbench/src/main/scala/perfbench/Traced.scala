package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.BcDfs
import repro.core._
import repro.graph.{Bfs, GraphGen}
import scala.util.control.NonFatal

/** The traced pass: each competitor call rebuilt from the layers' public
  * functions, in the order and with the τ rule of `PathEnum.runOnIndex`,
  * every layer call inside its own span.
  *
  * Span names: `query` (the call; its wall time is the query time) with
  * children `index`, `prelim`, `dp`, `leftdeep`, `joinenum` and `bcrel`.
  * Extra probes sit outside the query span, under `probe`: the two BFS
  * runs the index build makes (`bfs-s`, `bfs-t`) and, for PathEnum, the
  * enumerator it did not choose (`alt-dp` when the DP was skipped, then
  * `alt-enum`) for `plan.regret`.
  */
object Traced {
  import Settings.{cfg, tau}

  def pass(spark: SparkSession, tr: Tracer, jobs: JobCounter, w: Workload, in: Inputs,
           warm: Seq[Call]): Seq[Call] =
    for {
      (q, qi) <- in.queries.zipWithIndex
      (c, ci) <- w.competitors.zipWithIndex
    } yield {
      val id = qi * w.competitors.size + ci
      val expected = warm.find(x => x.q == q && x.competitor == c.name).map(_.plan).getOrElse("-")
      val call = try run(spark, tr, jobs, in, c.name, q, id) catch { case NonFatal(e) =>
        Call(id, c.name, q, 0, 0, -1, in.ref(q), killed = false, 0, "-", Some(e.toString))
      }
      val checked =
        if (call.error.isEmpty && call.plan != expected)
          call.copy(error = Some(s"traced plan ${call.plan} != untimed plan $expected"))
        else call
      println("traced " + checked.row)
      checked
    }

  private def run(spark: SparkSession, tr: Tracer, jobs: JobCounter, in: Inputs,
                  competitor: String, q: HcQuery, id: Int): Call = {
    var cleanup: () => Unit = () => ()
    var index: LightIndex = null
    var dpEst: Option[DpEstimate] = None
    val (res, plan, qSpan) = tr.span("query", id) { qs =>
      qs.tags("competitor") = competitor
      val (res, plan) = competitor match {
        case "BC-DFS" | "BC-JOIN" =>
          val (rel, _) = tr.span("bcrel")(_ => BcDfs.relation(spark, in.edges, q))
          cleanup = () => rel.unpersist(blocking = false)
          if (competitor == "BC-DFS") (leftDeep(spark, tr, rel, q), "BC-DFS")
          else (join(spark, tr, rel, q, Settings.bcCut(q.k)), "BC-JOIN")
        case _ =>
          index = tr.span("index") { s =>
            val ix = LightIndex.build(spark, in.edges, q)
            s.counts("edges") = ix.edgeCount.toDouble
            ix
          }
          cleanup = () => index.unpersist()
          val rel = LeftDeepEnum.indexRelation(index)
          def dp(): DpEstimate = {
            val d = tr.span("dp")(s => recordDp(s, Estimator.full(spark, index)))
            dpEst = Some(d)
            d
          }
          competitor match {
            case "IDX-DFS" => (leftDeep(spark, tr, rel, q), "DFS(forced)")
            case "IDX-JOIN" => (join(spark, tr, rel, q, dp().bestCut), "JOIN(forced)")
            case _ =>
              val tHat = tr.span("prelim")(_ => Estimator.preliminary(spark, index))
              if (tHat <= tau) (leftDeep(spark, tr, rel, q), "DFS(prelim)")
              else {
                val d = dp()
                if (d.tDfs <= d.tJoin) (leftDeep(spark, tr, rel, q), "DFS(cost)")
                else (join(spark, tr, rel, q, d.bestCut), "JOIN")
              }
          }
      }
      qs.tags("plan") = plan
      (res, plan, qs)
    }

    try {
      if (index != null) tr.span("probe", id) { p =>
        val ds = tr.span("bfs-s")(_ => Bfs.distances(spark, in.edges, q.s, q.k, noExpand = Set(q.t)))
        val dt = tr.span("bfs-t")(_ =>
          Bfs.distances(spark, GraphGen.reverse(in.edges), q.t, q.k, noExpand = Set(q.s)))
        p.counts("reached") = (ds.count() + dt.count()).toDouble
        if (competitor == "PathEnum") {
          val rel = LeftDeepEnum.indexRelation(index)
          if (plan == "JOIN") tr.span("alt-enum")(_ => LeftDeepEnum.run(spark, rel, q, cfg))
          else {
            val cut = dpEst.getOrElse(tr.span("alt-dp")(s => recordDp(s, Estimator.full(spark, index)))).bestCut
            tr.span("alt-enum")(_ => JoinEnum.run(spark, rel, q, cut, cfg))
          }
        }
      }
    } finally cleanup()

    val n = tr.subtree(qSpan).map(s => jobs.stats(spark.sparkContext, s.group).jobs).sum
    Call(id, competitor, q, qSpan.ms, n, res.results, in.ref(q), res.timedOut, qSpan.ms, plan, None)
  }

  private def leftDeep(spark: SparkSession, tr: Tracer, rel: DataFrame, q: HcQuery): EnumResult =
    tr.span("leftdeep")(s => recordEnum(s, LeftDeepEnum.run(spark, rel, q, cfg)))

  private def join(spark: SparkSession, tr: Tracer, rel: DataFrame, q: HcQuery, cut: Int): EnumResult =
    tr.span("joinenum")(s => recordEnum(s, JoinEnum.run(spark, rel, q, cut, cfg)))

  private def recordEnum(s: Span, r: EnumResult): EnumResult = {
    s.counts("results") = r.results.toDouble
    s.counts("peak_cells") = r.peakPartialCells.toDouble
    r
  }

  private def recordDp(s: Span, d: DpEstimate): DpEstimate = {
    s.counts("walks") = d.forward(d.k).toDouble
    d
  }
}

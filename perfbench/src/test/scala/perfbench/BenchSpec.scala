package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{RefGraph, ReproSpec, TestGraphs}
import repro.core.HcQuery
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.ListenerDrain

/** Fast checks of the benchmark's own machinery on the small test graphs:
  * span nesting, job attribution, trace coverage and metric aggregation. */
class BenchSpec extends ReproSpec {

  private val w = Workload("test-figure1", "none", Competitor.all)

  private def inputs(edges: Seq[(Long, Long)], q: HcQuery): Inputs = {
    val ref = RefGraph.Ref(edges).paths(q.s, q.t, q.k).size.toLong
    Inputs(edgeDf(edges).cache(), edges.size.toLong, Seq(q), Map(q -> ref))
  }

  /** A traced pass of all five competitors, with an independent job count. */
  private lazy val run = {
    val sc = spark.sparkContext
    val in = inputs(TestGraphs.figure1, HcQuery(1L, 2L, 4))
    val ledger = new Ledger
    sc.addSparkListener(ledger)
    val warm = Main.pass(spark, ledger, w, in, "warmup", in.queries)
    val total = new AtomicLong
    val all = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = total.incrementAndGet()
    }
    ListenerDrain(sc)
    sc.addSparkListener(all)
    val tr = new Tracer(spark)
    val traced = Traced.pass(spark, tr, ledger, w, in, warm)
    ListenerDrain(sc)
    sc.removeSparkListener(all)
    val layers = Layers.metrics(sc, tr, ledger, in, warm, traced)
    sc.removeSparkListener(ledger)
    (warm, traced, tr, ledger, total.get, layers.toMap)
  }

  test("untimed and traced calls agree with the reference and on the plan") {
    val (warm, traced, _, _, _, _) = run
    assert(warm.size == 5 && traced.size == 5)
    assert(warm.forall(!_.failed), warm.map(_.row).mkString("\n"))
    assert(traced.forall(!_.failed), traced.map(_.row).mkString("\n"))
    assert(traced.map(_.plan) == warm.map(_.plan))
  }

  test("spans nest inside their parent and share its query id") {
    val (_, _, tr, _, _, _) = run
    for (s <- tr.spans if s.parent >= 0) {
      val p = tr.spans(s.parent)
      assert(p.startNs <= s.startNs && s.endNs <= p.endNs, s"${s.name} outside ${p.name}")
      assert(p.query == s.query)
    }
    val top = tr.spans.filter(_.parent < 0).map(_.name).toSet
    assert(top == Set("query", "probe"))
    assert(tr.spans.filter(_.name == "query").map(_.query).toSet == (0 until 5).toSet)
  }

  test("jobs attributed to spans add up to the listener total") {
    val (_, _, tr, ledger, total, _) = run
    val groups = ledger.snapshot(spark.sparkContext)
    val attributed = tr.spans.map(s => groups.get(s.group).map(_.jobs).getOrElse(0L)).sum
    assert(total > 0)
    assert(attributed == total)
  }

  test("top-level spans cover at least 90% of each query's wall time") {
    val (_, _, _, _, _, layers) = run
    assert(layers("trace.coverage").value >= 0.9)
    assert(layers("leftdeep.ms.BC-DFS").value > 0 && layers("joinenum.ms.BC-JOIN").value > 0)
    assert(layers("bcrel.jobs").value > 0 && layers("index.jobs").value > 0)
  }

  test("per-layer metric names match BENCHMARK.json") {
    val (_, _, _, _, _, layers) = run
    val declared = BenchSpec.declared("per_layer")
    assert(layers.keySet == declared.toSet)
    assert(Report.gatedNames.toSet == BenchSpec.declared("end_to_end").toSet)
  }

  test("median, suffix and failed_frac aggregation") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(Stats.median(Seq.empty) == 0.0)
    assert(Stats.covered(Seq((0L, 10L), (5L, 20L), (30L, 40L)), 2L, 35L) == 23L)

    val q = HcQuery(1L, 2L, 6)
    def call(c: String, ms: Double, results: Long, killed: Boolean = false) =
      Call(0, c, q, ms, 10, results, 7, killed, ms, "p", None)
    val calls = Seq(call("BC-DFS", 100, 7), call("BC-DFS", 300, 6), call("PathEnum", 200, 7, killed = true),
      call("PathEnum", 400, 7))
    val two = Workload("t", "none", Seq(Competitor("BC-DFS"), Competitor("PathEnum")))
    val m = Report.endToEnd(calls, 2.0, 5.0, two).toMap
    assert(m("failed_frac").value == 0.5 && m("failed_frac").samples == 4)
    assert(m("query_ms.p50").value == 250.0)
    assert(m("query_ms.p50.BC-DFS").value == 200.0 && m("query_ms.p50.BC-DFS").samples == 2)
    assert(m("query_ms.p50.PathEnum").value == 300.0)
    assert(m("queries_per_s").value == 2.0)
    val one = Workload("t", "none", Seq(Competitor("PathEnum")))
    assert(!Report.endToEnd(calls, 2.0, 5.0, one).exists(_._1.startsWith("query_ms.p50.")))

    val sfx = Stats.suffixed("x.ms", Seq(1.0, 3.0), Seq("A" -> Seq(1.0), "B" -> Seq.empty[Double]))(
      xs => Stats.medianMetric(xs, "ms"))
    assert(sfx.map(_._1) == Seq("x.ms", "x.ms.A", "x.ms.B"))
    assert(sfx.map(_._2.value) == Seq(2.0, 1.0, 0.0))
  }
}

object BenchSpec {
  /** Metric names of one list in the repository's BENCHMARK.json. */
  def declared(list: String): Seq[String] = {
    val text = scala.io.Source.fromFile("../BENCHMARK.json").mkString
    val section = text.substring(text.indexOf(s""""$list""""))
    val body = section.substring(section.indexOf('['), section.indexOf(']') + 1)
    """"name":\s*"([^"]+)"""".r.findAllMatchIn(body).map(_.group(1)).toSeq
  }
}

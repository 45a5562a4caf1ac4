package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.RefGraph
import repro.bench.{GraphSuite, QueryGen}
import repro.core.HcQuery
import repro.graph.GraphGen
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One competitor call of a closed-loop pass, checked against the reference.
  *
  * @param responseMs time to the first 1000 results including preprocessing;
  *                   the completion time for a join plan or a smaller result
  */
final case class Call(id: Int, competitor: String, q: HcQuery, ms: Double, jobs: Long,
                      results: Long, ref: Long, killed: Boolean, responseMs: Double,
                      plan: String, error: Option[String]) {
  def failed: Boolean = error.isDefined || killed || results != ref

  def row: String =
    f"call $id%4d ${competitor}%-9s s=${q.s}%-6d t=${q.t}%-6d ${ms}%10.1f ms ${jobs}%4d jobs " +
    f"${results}%7d results (ref $ref%7d) plan=$plan%-12s " +
    (if (failed) s"FAILED${error.map(e => s": $e").getOrElse(if (killed) ": killed" else ": count")}" else "ok")
}

/** The workload's inputs, made once per run from the seed. */
final case class Inputs(edges: DataFrame, edgeCount: Long, queries: Seq[HcQuery],
                        ref: Map[HcQuery, Long])

/** PathEnum query benchmark. One client on the driver thread sends one
  * query at a time (a closed loop) to each competitor's public entry point.
  *
  * {{{ perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *                    --fingerprints <file> --out <dir> }}}
  *
  * Prints one row per call, every metric with its unit and sample count,
  * and as its last line one JSON object: `correct`, `attempted`, `failed`
  * and the end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, die(s"missing --$k"))
    val w = Workload.byName(need("workload"))
      .getOrElse(die(s"unknown workload ${need("workload")}; one of ${Workload.all.map(_.name).mkString(", ")}"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toDouble
    val trace = need("trace") == "1"
    val fingerprints = Paths.get(need("fingerprints"))
    val out = Paths.get(need("out"))

    val tSession = System.nanoTime()
    val spark = SparkSession.builder
      .master(Settings.master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.adaptive.coalescePartitions.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sessionS = (System.nanoTime() - tSession) / 1e9
    val sc = spark.sparkContext

    val ledger = if (trace) new Ledger else new JobCounter
    sc.addSparkListener(ledger)
    val tracer = new Tracer(spark)

    try {
      // --- set-up: graph and queries, repeated; fingerprints; reference counts
      // Every repetition computes the same plan, which Spark caches once: drop
      // the previous copy first so each repetition generates the graph anew.
      val (edges, queries) = (2 to Settings.setupReps).foldLeft(makeInputs(spark, tracer, w, seed)) {
        case ((prev, _), _) => prev.unpersist(blocking = true); makeInputs(spark, tracer, w, seed)
      }
      val pairs = edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
      val edgeFp = fingerprint(pairs.sorted.flatMap { case (a, b) => Seq(a, b) })
      val queryFp = fingerprint(queries.flatMap(q => Seq(q.s, q.t)))
      checkFingerprints(fingerprints, w.name, seed, edgeFp, queryFp)
      val tRef = System.nanoTime()
      val refGraph = RefGraph.Ref(pairs)
      val ref = queries.map(q => q -> refGraph.paths(q.s, q.t, q.k).size.toLong).toMap
      println(f"reference counts (RefGraph) in ${(System.nanoTime() - tRef) / 1e6}%.0f ms: " +
        queries.map(q => s"q(${q.s},${q.t})=${ref(q)}").mkString(" "))
      val in = Inputs(edges, pairs.size.toLong, queries, ref)

      // --- warm-up: one untimed pass over the query set, counted in set-up
      val warm = tracer.span("setup.warmup")(_ => pass(spark, ledger, w, in, "warmup", in.queries))
      warm.foreach(c => println("warmup " + c.row))

      def secs(name: String) = tracer.spans.filter(_.name == name).map(_.ms / 1e3).toSeq
      val genS = Stats.median(secs("setup.graph").zip(secs("setup.querygen")).map { case (g, q) => g + q })
      val warmS = secs("setup.warmup").head
      val setupS = sessionS + genS + warmS

      // --- timed closed loop, tracing off
      val tLoop = System.nanoTime()
      val timed = scala.collection.mutable.ArrayBuffer.empty[Call]
      var round = 0
      while (round == 0 || (System.nanoTime() - tLoop) / 1e9 < seconds) {
        timed ++= pass(spark, ledger, w, in, "timed", Seq(in.queries(round % in.queries.size)),
          firstId = timed.size)
        round += 1
      }
      val loopS = (System.nanoTime() - tLoop) / 1e9
      timed.foreach(c => println("timed  " + c.row))

      println(s"workload ${w.name} graph ${w.graph} (${in.edgeCount} edges, fingerprint $edgeFp) " +
        s"seed $seed queries ${queries.size} (fingerprint $queryFp) k=${Settings.k} " +
        s"competitors ${w.competitors.map(_.name).mkString(",")}")
      println(f"setup: session $sessionS%.3f s, graph + querygen $genS%.3f s " +
        f"(median of ${Settings.setupReps}), warmup $warmS%.3f s")

      val e2e = Report.endToEnd(timed.toSeq, loopS, setupS, w)
      Report.print("end-to-end", e2e)

      val (metrics, attempted, failed) =
        if (!trace) (Report.gated(e2e), timed.size, timed.count(_.failed))
        else {
          val traced = Traced.pass(spark, tracer, ledger, w, in, warm)
          val layers = ledger match {
            case l: Ledger => Layers.metrics(sc, tracer, l, in, timed.toSeq, traced)
          }
          Report.print("per-layer", layers)
          Files.createDirectories(out)
          val spanFile = out.resolve(s"spans-${w.name}-$seed.jsonl")
          Files.write(spanFile, tracer.spans.map(_.json).mkString("", "\n", "\n")
            .getBytes(StandardCharsets.UTF_8))
          println(s"spans written to $spanFile")
          (layers, timed.size + traced.size, timed.count(_.failed) + traced.count(_.failed))
        }
      val correct = failed == 0 && !warm.exists(_.failed)
      println(Report.json(correct, attempted, failed, metrics))
    } finally spark.stop()
  }

  /** Generate the graph and the seeded queries once, under set-up spans. */
  private def makeInputs(spark: SparkSession, tracer: Tracer, w: Workload,
                         seed: Long): (DataFrame, Seq[HcQuery]) = {
    val spec = GraphSuite.spec(w.graph)
    val edges = tracer.span("setup.graph") { _ =>
      val df = GraphGen.powerLaw(spark, spec.vertices, spec.edgesTarget, spec.alpha, spec.seed)
        .persist(StorageLevel.MEMORY_AND_DISK)
      df.count()
      df
    }
    val qs = tracer.span("setup.querygen") { _ =>
      QueryGen.queries(spark, edges, Settings.queries, seed).map { case (s, t) => HcQuery(s, t, Settings.k) }
    }
    (edges, qs)
  }

  /** Every competitor on each of `queries`, one call at a time, each under
    * its own job group; call ids count up from `firstId`. */
  def pass(spark: SparkSession, jobs: JobCounter, w: Workload, in: Inputs, label: String,
           queries: Seq[HcQuery], firstId: Int = 0): Seq[Call] = {
    val sc = spark.sparkContext
    for {
      (q, qi) <- queries.zipWithIndex
      (c, ci) <- w.competitors.zipWithIndex
    } yield {
      val id = firstId + qi * w.competitors.size + ci
      val group = s"perfbench-$label-$id"
      sc.setJobGroup(group, s"${c.name} q(${q.s},${q.t})")
      val t0 = System.nanoTime()
      val r = try Right(c.run(spark, in.edges, q)) catch { case NonFatal(e) => Left(e.toString) }
      val ms = (System.nanoTime() - t0) / 1e6
      sc.clearJobGroup()
      val n = jobs.stats(sc, group).jobs
      r match {
        case Right(res) =>
          Call(id, c.name, q, ms, n, res.enum.results, in.ref(q), res.enum.timedOut,
            res.enum.responseMs.map(_ + res.indexBuildMs + res.optimizeMs).getOrElse(ms),
            res.planInfo.plan, None)
        case Left(err) =>
          Call(id, c.name, q, ms, n, -1, in.ref(q), killed = false, ms, "-", Some(err))
      }
    }
  }

  /** First 16 hex digits of the SHA-256 of the values as 8-byte longs. */
  def fingerprint(xs: Seq[Long]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    xs.foreach { x => buf.clear(); buf.putLong(x); md.update(buf.array()) }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  /** The recorded edge-set fingerprint of the workload must match; a query
    * list fingerprint is checked when one is recorded for this seed.
    * File lines: `<workload> edges <fp>` and `<workload> queries <seed> <fp>`. */
  private def checkFingerprints(file: Path, workload: String, seed: Long,
                                edgeFp: String, queryFp: String): Unit = {
    val rows = Files.readAllLines(file).asScala.toSeq
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map(_.split("\\s+").toSeq)
    val edgesRec = rows.collectFirst { case Seq(`workload`, "edges", fp) => fp }
    val queriesRec = rows.collectFirst { case Seq(`workload`, "queries", s, fp) if s == seed.toString => fp }
    if (!edgesRec.contains(edgeFp))
      die(s"edge-set fingerprint of $workload is $edgeFp, recorded ${edgesRec.getOrElse("none")} in $file")
    queriesRec.foreach { fp =>
      if (fp != queryFp) die(s"query-list fingerprint of $workload seed $seed is $queryFp, recorded $fp in $file")
    }
    println(s"fingerprints: edges $edgeFp (recorded), queries $queryFp " +
      (if (queriesRec.isDefined) "(recorded)" else "(no record for this seed)"))
  }

  private def die(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    sys.exit(2)
  }
}

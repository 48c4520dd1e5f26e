package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import com.sun.management.{GarbageCollectionNotificationInfo, OperatingSystemMXBean}
import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.scheduler._
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.json4s.DefaultFormats
import org.json4s.jackson.Serialization

import repro.cluster.{HAC, SpatialGrid}
import repro.community.Louvain
import repro.core._
import repro.data.{Cleaning, MobySynth}
import repro.jobs.JobUtil
import repro.report.PaperTables

/** One benchmark run in one JVM.
  *
  * The timed unit is what `spark-submit repro.jobs.AllTables` does after
  * its session is up: `Pipeline.run`, the Table II and III stats and the
  * three `Pipeline.communities` calls. Units run back to back until
  * `--seconds` have elapsed (at least one); the first unit of a JVM is
  * cold, as every spark-submit is.
  *
  * With `--unit hac` the timed unit is instead `HAC.cluster` with the
  * paper's cut and Rule 2 on the points in `--points` (id,lat,lon lines),
  * a field dense enough that the 100 m proximity graph percolates.
  *
  * With `--trace 1` the AllTables unit is decomposed into the same public
  * calls in the same order, each wrapped in a span that a [[SpanListener]]
  * charges Spark jobs, tasks, executor CPU and shuffle bytes to; this is the
  * traced unit of both workloads. After the units, standalone probes time
  * nearest-station, grid pairs and HAC, on the points `--points` names if
  * given and on the last unit's inputs otherwise; they are not part of any
  * unit.
  *
  * Usage: Harness --unit <all|hac> --sf <x> --seed <n> --seconds <s> --trace <0|1>
  *                --out <file.json> [--points <file.csv>]
  * The output checks and all summaries live in perfbench/report.py.
  */
object Harness {

  /** Session starts per run; run.py reports their median as setup_s. */
  val Setups = 9
  val SpanKey = "perfbench.span"
  private val Drain = "drain"
  val Grans = Seq(TemporalGraphs.TNull, TemporalGraphs.TDay, TemporalGraphs.THour)

  // ---------------------------------------------------------------- JVM

  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[OperatingSystemMXBean]
  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Largest heap in use right after a collection, since the last reset. */
  object HeapAfterGc extends NotificationListener {
    private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet
    @volatile var peakBytes = 0L
    def install(): Unit = ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
      case e: NotificationEmitter => e.addNotificationListener(this, null, null)
      case _ =>
    }
    override def handleNotification(n: Notification, hb: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
          .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
        synchronized { peakBytes = math.max(peakBytes, used) }
      }
  }

  // ------------------------------------------------------------- tracing

  final class Acc { var jobs = 0L; var tasks = 0L; var cpuNs = 0L; var shuffleBytes = 0L }

  /** Charges jobs and task metrics to the span named in the job's local
    * properties. A stage belongs to the first span that submitted it.
    */
  final class SpanListener extends SparkListener {
    private val stageSpan = mutable.HashMap.empty[Int, String]
    private val jobSpan = mutable.HashMap.empty[Int, String]
    private val accs = mutable.HashMap.empty[String, Acc]
    private var markers = 0

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("other")
      jobSpan(e.jobId) = span
      accs.getOrElseUpdate(span, new Acc).jobs += 1
      e.stageIds.foreach(id => if (!stageSpan.contains(id)) stageSpan(id) = span)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) {
        val a = accs.getOrElseUpdate(stageSpan.getOrElse(e.stageId, "other"), new Acc)
        a.tasks += 1
        a.cpuNs += m.executorCpuTime
        a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      if (jobSpan.get(e.jobId).contains(Drain)) { markers += 1; notifyAll() }
    }

    /** Runs a marker job and waits until the listener has seen it end;
      * events reach a listener in order, so every earlier event is in.
      */
    def drain(spark: SparkSession): Unit = {
      val sc = spark.sparkContext
      val target = synchronized(markers) + 1
      sc.setLocalProperty(SpanKey, Drain)
      sc.parallelize(Seq(1), 1).count()
      sc.setLocalProperty(SpanKey, null)
      synchronized { while (markers < target) wait(100) }
    }

    def take(): Map[String, Acc] = synchronized {
      val out = accs.toMap - Drain; accs.clear(); out
    }
  }

  final case class Span(name: String, var wallNs: Long = 0L, var calls: Int = 0)

  /** Spans of one unit, or of the probes; a no-op when tracing is off. */
  final class Tracer(spark: SparkSession, val on: Boolean) {
    val spans = mutable.LinkedHashMap.empty[String, Span]
    def apply[A](name: String)(body: => A): A =
      if (!on) body
      else {
        val sc = spark.sparkContext
        sc.setLocalProperty(SpanKey, name)
        val t0 = System.nanoTime
        try body
        finally {
          val s = spans.getOrElseUpdate(name, Span(name))
          s.wallNs += System.nanoTime - t0; s.calls += 1
          sc.setLocalProperty(SpanKey, null)
        }
      }
  }

  // ---------------------------------------------------------------- unit

  final case class Tables(report: Cleaning.Report, candidate: CandidateGraph.Stats,
                          selected: SelectedGraph.Stats,
                          communities: Seq[(TemporalGraphs.Granularity, CommunityAnalysis.Summary)]) {
    /** Tables I–VI as `AllTables` prints them. */
    def render: String = {
      val titled = Map[TemporalGraphs.Granularity, (String, (Int, Double), Seq[(Long, Long, Long, Long, Long)])](
        TemporalGraphs.TNull -> ("TABLE IV — G_Basic", PaperTables.PaperBasic, PaperTables.PaperBasicRows),
        TemporalGraphs.TDay -> ("TABLE V — G_Day", PaperTables.PaperDay, PaperTables.PaperDayRows),
        TemporalGraphs.THour -> ("TABLE VI — G_Hour", PaperTables.PaperHour, PaperTables.PaperHourRows))
      (Seq(PaperTables.tableI(report), PaperTables.tableII(candidate), PaperTables.tableIII(selected)) ++
        communities.map { case (g, s) =>
          val (title, paper, rows) = titled(g)
          PaperTables.tableCommunity(title, paper, rows, s)
        }).mkString("\n\n")
    }
  }

  /** Everything a traced unit leaves for the probes and the counts. */
  final case class Inputs(clean: Cleaning.CleanData, selection: StationSelection.Result,
                          louvainLevels: Int)

  def untracedUnit(spark: SparkSession, cfg: Pipeline.Config): Tables = {
    val res = Pipeline.run(spark, cfg)
    val s2 = res.candidate.stats
    val s3 = res.selected.stats
    Tables(res.report, s2, s3,
           Grans.map(g => g -> Pipeline.communities(spark, res.selected, g).summary))
  }

  /** The untraced unit split into its public calls; mirrors the bodies of
    * `Pipeline.run`, `AllTables` and `Pipeline.communities`.
    */
  def tracedUnit(spark: SparkSession, cfg: Pipeline.Config, span: Tracer): (Tables, Inputs) = {
    import spark.implicits._
    val raw = span("data.generate")(MobySynth.generate(spark, cfg.sf, cfg.seed))
    val clean = span("data.clean")(Cleaning.clean(raw))
    val report = span("data.report")(Cleaning.report(raw, clean))
    val candidate = span("core.candidate_build")(CandidateGraph.build(spark, clean,
      preAssignM = cfg.preAssignM, hacCutM = cfg.hacCutM, centroidSepM = cfg.centroidSepM))
    val selection = span("core.select")(StationSelection.select(spark, candidate, minDistM = cfg.minDistM))
    val selected = span("core.redirect")(SelectedGraph.build(spark, candidate, selection))
    val s2 = span("core.candidate_stats")(candidate.stats)
    val s3 = span("core.selected_stats")(selected.stats)
    var levels = 0
    val comms = Grans.map { g =>
      val triples = span("core.temporal_edges") {
        TemporalGraphs.edges(spark, selected.trips, g)
          .select($"src".cast("long"), $"dst".cast("long"), $"weight".cast("double"))
          .as[(Long, Long, Double)].collect().toSeq
      }
      val r = span("community.louvain")(Louvain.run(triples))
      levels += r.levels
      val summary = span("core.summarize") {
        val allNodes = selected.nodes.select($"node_id").as[Long].collect()
        val full = allNodes.map(n => n -> r.community.getOrElse(n, n)).toMap
        CommunityAnalysis.summarize(spark, selected, full, r.modularity)
      }
      g -> summary
    }
    (Tables(report, s2, s3, comms), Inputs(clean, selection, levels))
  }

  /** The hac workload's input, as run.py writes it: one `id,lat,lon` line per point. */
  def readPoints(spark: SparkSession, path: String): DataFrame = {
    import spark.implicits._
    val src = scala.io.Source.fromFile(path, "UTF-8")
    val rows =
      try src.getLines().map { line =>
        val Array(id, lat, lon) = line.split(',')
        (id.toLong, lat.toDouble, lon.toDouble)
      }.toVector
      finally src.close()
    rows.toDF("id", "lat", "lon").localCheckpoint(true)
  }

  /** The hac workload's unit: the call `CandidateGraph.build` makes, with
    * its result collected. Returns the (id, cluster) assignment sorted by
    * id and the (cluster, lat, lon, points) centroids sorted by cluster.
    */
  def hacUnit(spark: SparkSession, cfg: Pipeline.Config, points: DataFrame)
      : (Seq[(Long, Long)], Seq[(Long, Double, Double, Long)]) = {
    import spark.implicits._
    val r = HAC.cluster(spark, points, cutM = cfg.hacCutM, minCentroidSepM = cfg.centroidSepM)
    (r.assignment.select($"id", $"cluster_id").as[(Long, Long)].collect().toSeq.sorted,
     r.centroids.select($"cluster_id", $"c_lat", $"c_lon", $"n_points")
       .as[(Long, Double, Double, Long)].collect().toSeq.sortBy(_._1))
  }

  /** Standalone probes on a traced unit's inputs, plus the counts. Grid
    * pairs and HAC run on `hacInput` when given.
    */
  def probes(spark: SparkSession, cfg: Pipeline.Config, in: Inputs, hacInput: Option[DataFrame],
             span: Tracer): Map[String, Any] = {
    import spark.implicits._
    val near = span("core.nearest_station") {
      CandidateGraph.nearestStation(in.clean.locations, in.clean.stations).localCheckpoint(true)
    }
    // the points CandidateGraph.build hands to HAC
    val toCluster = hacInput.getOrElse(in.clean.locations
      .join(near.filter($"station_dist_m" > cfg.preAssignM).select($"location_id"), "location_id")
      .select($"location_id" as "id", $"lat", $"lon")
      .localCheckpoint(true))
    val pairs = span("cluster.pairs") {
      SpatialGrid.neighbourPairs(spark, toCluster, cfg.hacCutM).localCheckpoint(true)
    }
    val clusters = span("cluster.hac") {
      HAC.cluster(spark, toCluster, cutM = cfg.hacCutM, minCentroidSepM = cfg.centroidSepM)
        .centroids.count()
    }
    val vertices = toCluster.select($"id").as[Long].rdd.map(id => (id, ()))
    val edges = pairs.select($"id_a", $"id_b").as[(Long, Long)].rdd.map { case (a, b) => Edge(a, b, ()) }
    val largest = Graph(vertices, edges).connectedComponents().vertices
      .map { case (_, c) => (c, 1L) }.reduceByKey(_ + _).values.max()
    val sel = in.selection
    Map(
      "cluster.pairs.rows" -> pairs.count(),
      "cluster.largest_component" -> largest,
      "cluster.hac.clusters" -> clusters,
      "core.select.degree_pass" -> sel.candidates.count(_.degree >= sel.degreeThreshold).toLong,
      "core.select.selected" -> sel.selected.size.toLong,
      "community.louvain.levels" -> in.louvainLevels.toLong)
  }

  // ------------------------------------------------------------- output

  def tablesJson(t: Tables): Map[String, Any] = {
    def grp(g: SelectedGraph.GroupStats) = Map(
      "stations" -> g.stations, "trips_from" -> g.tripsFrom, "trips_to" -> g.tripsTo,
      "edges_from" -> g.edgesFrom, "edges_to" -> g.edgesTo)
    val r = t.report; val c = t.candidate; val s = t.selected
    Map(
      "I" -> Map("orig_stations" -> r.origStations, "clean_stations" -> r.cleanStations,
                 "orig_rentals" -> r.origRentals, "clean_rentals" -> r.cleanRentals,
                 "orig_locations" -> r.origLocations, "clean_locations" -> r.cleanLocations),
      "II" -> Map("nodes" -> c.nNodes, "station_nodes" -> c.nStationNodes,
                  "candidate_nodes" -> c.nCandidateNodes, "undirected" -> c.undirectedEdges,
                  "undirected_no_loops" -> c.undirectedEdgesNoLoops, "directed" -> c.directedEdges,
                  "directed_no_loops" -> c.directedEdgesNoLoops, "trips" -> c.nTrips),
      "III" -> Map("pre" -> grp(s.preExisting), "selected" -> grp(s.selected),
                   "total_stations" -> s.totalStations, "total_trips" -> s.totalTrips,
                   "total_edges" -> s.totalEdges),
      "communities" -> t.communities.map { case (g, sum) =>
        Map("graph" -> g.name, "modularity" -> sum.modularity,
            "rows" -> sum.rows.map(x => Seq(x.communityId, x.oldStations, x.newStations,
                                            x.totalStations, x.within, x.out, x.in)))
      })
  }

  def sha256(s: String): String =
    MessageDigest.getInstance("SHA-256").digest(s.getBytes(StandardCharsets.UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString

  def write(path: String, text: String): Unit =
    Files.write(Paths.get(path), text.getBytes(StandardCharsets.UTF_8))

  // --------------------------------------------------------------- main

  def main(args: Array[String]): Unit = {
    val opt = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val cfg = Pipeline.Config(sf = opt("sf").toDouble, seed = opt("seed").toLong)
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val hac = opt("unit") match {
      case "all" => false
      case "hac" => true
      case u => throw new IllegalArgumentException(s"--unit must be all or hac, not $u")
    }
    val out = opt("out")

    HeapAfterGc.install()
    // each set-up starts the session the way spark-submit AllTables does;
    // all but the last are stopped again
    val setups = (1 to Setups).map { i =>
      val t0 = System.nanoTime
      val s = JobUtil.session("perfbench")
      val dt = (System.nanoTime - t0) / 1e9
      if (i < Setups) s.stop()
      dt
    }
    val spark = SparkSession.active
    val listener = new SpanListener
    if (trace) spark.sparkContext.addSparkListener(listener)
    val points = opt.get("points").map(readPoints(spark, _))

    val units = mutable.ArrayBuffer.empty[Map[String, Any]]
    var lastInputs: Option[Inputs] = None
    val start = System.nanoTime
    do {
      val span = new Tracer(spark, trace)
      HeapAfterGc.synchronized { HeapAfterGc.peakBytes = 0L }
      val (gc0, cpu0, t0) = (gcMillis, os.getProcessCpuTime, System.nanoTime)
      val rec = mutable.LinkedHashMap.empty[String, Any]
      val outcome =
        try Right(
          if (trace) { val (t, in) = tracedUnit(spark, cfg, span); lastInputs = Some(in); Left(t) }
          else if (hac) Right(hacUnit(spark, cfg, points.get))
          else Left(untracedUnit(spark, cfg)))
        catch { case e: Exception => Left(e) }
      rec("wall_s") = (System.nanoTime - t0) / 1e9
      rec("cpu_s") = (os.getProcessCpuTime - cpu0) / 1e9
      rec("gc_ms") = gcMillis - gc0
      rec("peak_heap_mb") = HeapAfterGc.peakBytes / 1048576.0
      outcome match {
        case Right(Left(t)) =>
          val text = t.render
          rec("digest") = sha256(text)
          rec("tables") = tablesJson(t)
          if (units.isEmpty) write(out.stripSuffix(".json") + ".tables.txt", text + "\n")
        case Right(Right((assignment, centroids))) =>
          // centroids to 1e-9 degrees: the order Spark sums in may move the last bits
          rec("digest") = sha256((assignment.map { case (i, c) => s"$i $c" } ++
            centroids.map { case (c, la, lo, n) => f"$c $la%.9f $lo%.9f $n" }).mkString("\n"))
          rec("hac") = Map("assignment" -> assignment.map { case (i, c) => Seq(i, c) },
                           "centroids" -> centroids.map { case (c, la, lo, n) => Seq(c, la, lo, n) })
        case Left(e) => rec("error") = e.toString
      }
      if (trace) {
        listener.drain(spark)
        val accs = listener.take()
        rec("spans") = span.spans.values.toSeq.map(s => spanJson(s, accs.get(s.name)))
        rec("spark") = Map("jobs" -> accs.values.map(_.jobs).sum,
                           "tasks" -> accs.values.map(_.tasks).sum,
                           "shuffle_mb" -> accs.values.map(_.shuffleBytes).sum / 1048576.0)
      }
      units += rec.toMap
    } while (System.nanoTime - start < seconds * 1e9)

    val result = mutable.LinkedHashMap[String, Any](
      "config" -> Map(
        "unit" -> opt("unit"), "sf" -> cfg.sf, "seed" -> cfg.seed, "master" -> spark.sparkContext.master,
        "default_parallelism" -> spark.sparkContext.defaultParallelism,
        "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "java" -> System.getProperty("java.version"), "spark" -> spark.version,
        "scala" -> scala.util.Properties.versionNumberString),
      "expected" -> {
        val c = MobySynth.counts(cfg.sf)
        Map("good_stations" -> c.goodStations, "good_rentals" -> c.goodRentals,
            "good_locations" -> c.goodLocations)
      },
      "setup_s" -> setups,
      "units" -> units.toSeq)
    for (in <- lastInputs) {
      val span = new Tracer(spark, on = true)
      val counts = probes(spark, cfg, in, points, span)
      listener.drain(spark)
      val accs = listener.take()
      result("probes") = span.spans.values.toSeq.map(s => spanJson(s, accs.get(s.name)))
      result("counts") = counts
    }
    write(out, Serialization.write(result)(DefaultFormats))
    spark.stop()
  }

  private def spanJson(s: Span, acc: Option[Acc]): Map[String, Any] = {
    val a = acc.getOrElse(new Acc)
    Map("name" -> s.name, "calls" -> s.calls, "wall_ms" -> s.wallNs / 1e6,
        "jobs" -> a.jobs, "tasks" -> a.tasks, "task_cpu_ms" -> a.cpuNs / 1e6,
        "shuffle_mb" -> a.shuffleBytes / 1048576.0)
  }
}

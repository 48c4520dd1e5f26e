package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.TemporalGraphs.TripTable
import repro.data.{Cleaning, MobySynth}
import repro.geo.{Haversine, PointTable}

/** Tests for candidate-graph construction (paper §IV-A, Table II). */
class CandidateGraphSpec extends SparkSpec {

  private val sf = repro.TestFixtures.sf
  private lazy val cleaned = repro.TestFixtures.cleaned
  private lazy val cand = repro.TestFixtures.candidate
  private lazy val stats = cand.stats

  /** location id → node id of `g`, from the cleaned location ids and `g.nodeOf` */
  private def nodeIdOf(g: CandidateGraph.Result): Map[Long, Long] = {
    val locs = cleaned.locationPoints.ids
    assert(g.locationIds.toSeq === locs.toSeq)
    locs.indices.map(k => locs(k) -> g.nodes(g.nodeOf(k)).id).toMap
  }
  private lazy val nodeOf = nodeIdOf(cand)

  /** (src id, dst id) → trips of `g` */
  private def edgeTrips(g: CandidateGraph.Result): Map[(Long, Long), Long] = {
    val (keys, counts) = TemporalGraphs.pairCounts(g.tripTable)
    val (ids, n) = (g.tripTable.ids, g.tripTable.ids.length)
    keys.indices.map(i => (ids((keys(i) / n).toInt), ids((keys(i) % n).toInt)) -> counts(i)).toMap
  }

  test("every cleaned location is assigned to exactly one node") {
    import spark.implicits._
    val locIds = cleaned.locations.select($"location_id").as[Long].collect()
    assert(cand.nodeOf.length === cleaned.locations.count())
    assert(nodeOf.keySet === locIds.toSet)
  }

  test("locations within 50 m of a station are pre-assigned to it") {
    import spark.implicits._
    val near = CandidateGraph.nearestStation(cleaned.locations, cleaned.stations)
      .as[(Long, Long, Double)].collect().map(t => t._1 -> (t._2, t._3)).toMap
    // every pre-assigned node (node_id < offset) must be the nearest
    // station and within 50 m
    val (pre, clustered) = nodeOf.partition(_._2 < CandidateGraph.CandidateOffset)
    assert(pre.count { case (l, n) => near(l)._1 != n } === 0)
    assert(pre.count { case (l, _) => near(l)._2 > 50.0 } === 0)
    // and every clustered location is > 50 m from all stations
    assert(clustered.count { case (l, _) => near(l)._2 <= 50.0 } === 0)
  }

  test("the candidate graph is identical to the pinned digest") {
    // SHA-256 over each sorted (location, node) pair's toString, then each
    // node's toString: pins the HAC partition, the Rule 2 merges and the
    // centroids of the sf=0.05, seed-7 fixture
    val md = MessageDigest.getInstance("SHA-256")
    nodeOf.toSeq.sorted.foreach(p => md.update(p.toString.getBytes(UTF_8)))
    cand.nodes.foreach(n => md.update(n.toString.getBytes(UTF_8)))
    assert(md.digest().map("%02x".format(_)).mkString ===
      "8c15df3f33e82c7e5987b462a713fac81fe049b013cee27f58faf8dc4e9a2d26")
  }

  test("build starts no Spark job: the cleaned tables are local relations") {
    assert(jobsStarted(CandidateGraph.build(spark, cleaned)) === 0)
  }

  test("nearestStation picks the true argmin (brute-force check)") {
    import spark.implicits._
    val near = CandidateGraph.nearestStation(cleaned.locations, cleaned.stations)
      .as[(Long, Long, Double)].collect().map(t => t._1 -> (t._2, t._3)).toMap
    val sts = cleaned.stations.select($"station_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    val locs = cleaned.locations.select($"location_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    locs.take(200).foreach { case (id, la, lo) =>
      val best = sts.map(s => (Haversine.metres(la, lo, s._2, s._3), s._1)).min
      assert(near(id)._1 === best._2)
      assert(math.abs(near(id)._2 - best._1) < 1e-9)
    }
  }

  test("nearestStation breaks distance ties by the lower station id") {
    import spark.implicits._
    val stations = Seq((7L, 53.34, -6.26), (3L, 53.34, -6.26)).toDF("station_id", "lat", "lon")
    val locations = Seq((1L, 53.341, -6.261)).toDF("location_id", "lat", "lon")
    val near = CandidateGraph.nearestStation(locations, stations)
      .select($"nearest_station").as[Long].collect()
    assert(near.toSeq === Seq(3L))
  }

  test("the candidate graph does not depend on row order or partitioning") {
    // the cleaned points are sorted by id, so the raw rows are shuffled
    // and the rentals repartitioned before cleaning
    val rnd = new scala.util.Random(3)
    val raw = cleaned.raw
    val other = CandidateGraph.build(spark, Cleaning.clean(raw.copy(stationRows = rnd.shuffle(raw.stationRows),
      locationRows = rnd.shuffle(raw.locationRows), rentalRows = raw.rentalRows.repartition(3))))
    assert(other.nodes.sortBy(_.id) === cand.nodes.sortBy(_.id))
    assert(edgeTrips(other) === edgeTrips(cand))
    assert(nodeIdOf(other) === nodeOf)
  }

  test("build fails unless every station id is below every candidate node id") {
    // a lone location 2.2 km from the one station becomes candidate node
    // 5 + CandidateOffset, which station 1,000,005 would merge with
    def toy(stationId: Long) = Cleaning.CleanData(cleaned.raw,
      PointTable(Array(stationId), Array(53.34), Array(-6.26)), PointTable(Array(5L), Array(53.36), Array(-6.26)),
      TripTable(Array(5L), Array(0), Array(0), Array(10)), cleaned.table1)
    for (station <- Seq(1000005L, 1000006L)) {
      val e = intercept[IllegalArgumentException](CandidateGraph.build(spark, toy(station)))
      assert(e.getMessage.contains(s"station id $station is not below candidate node id 1000005"), e.getMessage)
    }
    assert(CandidateGraph.build(spark, toy(1000004L)).nodes.map(_.id) === Seq(1000004L, 1000005L))
  }

  test("station nodes carry station coords; candidate nodes carry centroids") {
    assert(cand.nodes.count(_.isStation) === cleaned.stations.count())
    val candidateNodes = cand.nodes.filterNot(_.isStation)
    assert(candidateNodes.count(_.id < CandidateGraph.CandidateOffset) === 0)
  }

  test("trips preserve the cleaned rental count") {
    assert(cand.trips.count() === cleaned.rentals.count())
    assert(stats.nTrips === cleaned.rentals.count())
  }

  test("stats: node counts are consistent") {
    assert(stats.nNodes === stats.nStationNodes + stats.nCandidateNodes)
    assert(stats.nStationNodes === cleaned.stations.count())
    assert(stats.nCandidateNodes > 0)
  }

  test("stats: directed >= undirected, loops consistent") {
    assert(stats.directedEdges >= stats.undirectedEdges)
    assert(stats.undirectedEdges > 0)
    val undirLoops = stats.undirectedEdges - stats.undirectedEdgesNoLoops
    val dirLoops = stats.directedEdges - stats.directedEdgesNoLoops
    assert(undirLoops === dirLoops) // a self pair is one edge in both views
    assert(stats.directedEdgesNoLoops <= 2 * stats.undirectedEdgesNoLoops)
  }

  test("every trip endpoint maps to an existing node") {
    import spark.implicits._
    val nodeIds = cand.nodes.map(_.id).toDF("node_id")
    assert(cand.trips.join(nodeIds.withColumnRenamed("node_id", "src_node"),
      Seq("src_node"), "left_anti").count() === 0L)
    assert(cand.trips.join(nodeIds.withColumnRenamed("node_id", "dst_node"),
      Seq("dst_node"), "left_anti").count() === 0L)
  }

  test("directed edge aggregation matches DuckDB oracle") {
    import spark.implicits._
    val sparkEdges = cand.trips.groupBy($"src_node", $"dst_node")
      .agg(count(lit(1)) as "w")
      .filter($"src_node" < CandidateGraph.CandidateOffset) // keep the oracle table small
    Oracle.assertEquivalent(sparkEdges,
      s"""SELECT src_node, dst_node, CAST(COUNT(*) AS BIGINT) AS w
         |FROM trips WHERE CAST(src_node AS BIGINT) < ${CandidateGraph.CandidateOffset}
         |GROUP BY src_node, dst_node""".stripMargin,
      "trips" -> cand.trips.select($"src_node", $"dst_node"))
  }

  test("candidate count roughly tracks the hotspot count at this sf") {
    val c = MobySynth.counts(sf)
    // each hotspot anchor has >= 1 location; most become 1-2 clusters, and
    // station stragglers add a few more
    assert(stats.nCandidateNodes > c.hotspots / 2, s"too few: ${stats.nCandidateNodes}")
    assert(stats.nCandidateNodes < c.hotspots * 3, s"too many: ${stats.nCandidateNodes}")
  }

  test("no trips are lost or duplicated by the node mapping (oracle)") {
    import spark.implicits._
    val perNode = cand.trips.groupBy($"src_node").agg(count(lit(1)) as "n")
      .agg(sum($"n") as "total")
    Oracle.assertEquivalent(perNode,
      "SELECT CAST(COUNT(*) AS BIGINT) AS total FROM trips",
      "trips" -> cand.trips.select($"rental_id"))
  }
}

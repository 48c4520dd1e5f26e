package repro.core

import java.time.ZoneId
import org.apache.spark.sql.functions.{expr, hour}
import repro.{Oracle, SparkSpec}
import repro.TestFixtures.tripCounts
import repro.data.Cleaning
import repro.geo.Haversine

/** Tests for the selected graph (paper §V-B, Table III). */
class SelectedGraphSpec extends SparkSpec {

  private lazy val cleaned = repro.TestFixtures.cleaned
  private lazy val cand = repro.TestFixtures.candidate
  private lazy val sel = repro.TestFixtures.selection
  private lazy val graph = repro.TestFixtures.selected
  private lazy val stats = graph.stats

  test("total trips are conserved by redirection") {
    assert(graph.trips.count() === cand.trips.count())
    assert(stats.totalTrips === cleaned.rentals.count())
  }

  test("build, counts and stats start no Spark job once the candidate counts are collected") {
    assert(cand.tripTable.size > 0)
    val jobs = jobsStarted {
      val g = SelectedGraph.build(spark, cand, sel)
      assert(g.tripTable.size > 0 && g.stats.totalTrips > 0)
    }
    assert(jobs === 0)
  }

  test("counts equal the Spark aggregate of the trips, candidate and selected (UTC and Europe/Dublin)") {
    import spark.implicits._
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    // Europe/Dublin moves hours (and days near midnight) against UTC
    try for (tz <- Seq("UTC", "Europe/Dublin")) {
      spark.conf.set(zoneKey, tz)
      // the counts are collected when the rentals are cleaned, so clean
      // and build afresh in this zone; the session zone is the oracle's
      val c = CandidateGraph.build(spark, Cleaning.clean(repro.TestFixtures.data.copy(zone = ZoneId.of(tz))))
      val explicit = c.trips
        .groupBy($"src_node", $"dst_node", expr("weekday(start_ts)") as "day", hour($"start_ts") as "hour")
        .count().as[(Long, Long, Int, Int, Long)].collect()
        .map { case (s, d, day, h, n) => (s, d, day, h) -> n }.toMap
      assert(tripCounts(c.tripTable) === explicit, tz)
      val g = SelectedGraph.build(spark, c, StationSelection.select(spark, c))
      assert(tripCounts(g.tripTable) === tripCounts(TemporalGraphs.table(g.trips)), tz)
    } finally spark.conf.set(zoneKey, zone)
  }

  test("final node set = stations + selected candidates") {
    val expected = cand.nodes.count(_.isStation) + sel.selected.size
    assert(graph.nodes.count() === expected)
    assert(stats.totalStations === expected)
    assert(stats.preExisting.stations === cand.nodes.count(_.isStation))
    assert(stats.selected.stations === sel.selected.size.toLong)
  }

  test("no trip references a rejected node after redirection") {
    import spark.implicits._
    val finalIds = graph.nodes.select($"node_id")
    assert(graph.trips.join(finalIds.withColumnRenamed("node_id", "src_node"),
      Seq("src_node"), "left_anti").count() === 0L)
    assert(graph.trips.join(finalIds.withColumnRenamed("node_id", "dst_node"),
      Seq("dst_node"), "left_anti").count() === 0L)
  }

  test("redirection sends rejected-node trips to the nearest final station") {
    import spark.implicits._
    val finals = graph.nodes.select($"node_id", $"lat", $"lon")
      .as[(Long, Double, Double)].collect()
    val rejected = sel.candidates.filterNot(_.selected).take(20)
    // recompute expected target for a sample of rejected nodes and verify
    // their trips all moved there
    rejected.foreach { r =>
      val expected = finals.minBy { case (id, la, lo) =>
        (Haversine.metres(r.lat, r.lon, la, lo), id)
      }._1
      val before = cand.trips.filter($"src_node" === r.nodeId).select($"rental_id")
      if (before.head(1).nonEmpty) {
        val after = graph.trips.join(before, "rental_id")
          .select($"src_node").distinct().as[Long].collect()
        assert(after.toSeq === Seq(expected),
          s"rejected ${r.nodeId}: trips went to ${after.toSeq}, expected $expected")
      }
    }
  }

  test("trips at kept nodes are unchanged") {
    import spark.implicits._
    val keptIds = graph.nodes.select($"node_id").as[Long].collect().toSet
    val sample = cand.trips
      .filter($"src_node".isin(keptIds.toSeq: _*) && $"dst_node".isin(keptIds.toSeq: _*))
      .limit(500)
    val joined = sample.select($"rental_id", $"src_node" as "s0", $"dst_node" as "d0")
      .join(graph.trips, "rental_id")
    assert(joined.filter($"s0" =!= $"src_node" || $"d0" =!= $"dst_node").count() === 0L)
  }

  test("group stats are consistent: from/to sums equal totals") {
    assert(stats.preExisting.tripsFrom + stats.selected.tripsFrom === stats.totalTrips)
    assert(stats.preExisting.tripsTo + stats.selected.tripsTo === stats.totalTrips)
    assert(stats.preExisting.edgesFrom + stats.selected.edgesFrom === stats.totalEdges)
    assert(stats.preExisting.edgesTo + stats.selected.edgesTo === stats.totalEdges)
  }

  test("pre-existing stations dominate trip share (dockless incentive shape)") {
    val share = stats.preExisting.tripsFrom.toDouble / stats.totalTrips
    assert(share > 0.6, s"pre-existing from-share $share")
  }

  test("trips-from per group matches DuckDB oracle") {
    import spark.implicits._
    val groups = Seq("false" -> stats.preExisting, "true" -> stats.selected)
      .map { case (f, g) => (f, g.stations, g.tripsFrom, g.tripsTo, g.edgesFrom, g.edgesTo) }
      .toDF("is_new", "stations", "trips_from", "trips_to", "edges_from", "edges_to")
    Oracle.assertEquivalent(groups,
      """WITH e AS (
        |  SELECT src_node, dst_node, COUNT(*) AS n FROM trips GROUP BY src_node, dst_node)
        |SELECT g.is_new AS is_new,
        |  CAST((SELECT COUNT(*) FROM nodes m WHERE m.is_new = g.is_new) AS BIGINT) AS stations,
        |  CAST((SELECT SUM(e.n) FROM e JOIN nodes m ON e.src_node = m.node_id
        |        WHERE m.is_new = g.is_new) AS BIGINT) AS trips_from,
        |  CAST((SELECT SUM(e.n) FROM e JOIN nodes m ON e.dst_node = m.node_id
        |        WHERE m.is_new = g.is_new) AS BIGINT) AS trips_to,
        |  CAST((SELECT COUNT(*) FROM e JOIN nodes m ON e.src_node = m.node_id
        |        WHERE m.is_new = g.is_new) AS BIGINT) AS edges_from,
        |  CAST((SELECT COUNT(*) FROM e JOIN nodes m ON e.dst_node = m.node_id
        |        WHERE m.is_new = g.is_new) AS BIGINT) AS edges_to
        |FROM (SELECT DISTINCT is_new FROM nodes) g""".stripMargin,
      "trips" -> graph.trips.select($"src_node", $"dst_node"),
      "nodes" -> graph.nodes.select($"node_id", $"is_new".cast("string") as "is_new"))
  }

  test("selected stations gain trips only from their own or rejected clusters") {
    import spark.implicits._
    // a selected station's trips after redirection >= its trips before
    val before = cand.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    val after = graph.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    sel.selected.foreach { s =>
      assert(after.getOrElse(s.nodeId, 0L) >= before.getOrElse(s.nodeId, 0L))
    }
  }
}

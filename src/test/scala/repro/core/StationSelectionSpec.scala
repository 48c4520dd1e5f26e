package repro.core

import repro.SparkSpec
import repro.geo.Haversine

/** Tests for Algorithm 1 (station ranking and selection). */
class StationSelectionSpec extends SparkSpec {

  private lazy val cand = repro.TestFixtures.candidate
  private lazy val sel = repro.TestFixtures.selection

  test("degrees: sum of degrees equals 2 x trips") {
    val total = StationSelection.degrees(cand.edgeTrips).values.sum
    assert(total === 2 * cand.trips.count())
  }

  test("degrees match an independent computation") {
    import spark.implicits._
    val out = cand.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    val in = cand.trips.groupBy($"dst_node").count().as[(Long, Long)].collect().toMap
    val deg = StationSelection.degrees(cand.edgeTrips)
    deg.foreach { case (node, d) =>
      assert(d === out.getOrElse(node, 0L) + in.getOrElse(node, 0L))
    }
  }

  test("threshold is the minimum fixed-station degree") {
    import spark.implicits._
    val deg = StationSelection.degrees(cand.edgeTrips)
    val stationIds = cand.nodes.filter($"is_station").select($"node_id").as[Long].collect()
    val expected = stationIds.map(id => deg.getOrElse(id, 0L)).min
    assert(sel.degreeThreshold === expected)
  }

  test("select starts no Spark job once the candidate graph is collected") {
    assert(cand.edgeTrips.nonEmpty && cand.nodeTable.nonEmpty)
    assert(jobsStarted(StationSelection.select(spark, cand)) === 0)
  }

  test("rule 3: every selected candidate meets the degree threshold") {
    sel.selected.foreach(c => assert(c.degree >= sel.degreeThreshold))
  }

  test("rule 4: every selected candidate is > 250 m from every fixed station") {
    import spark.implicits._
    val sts = cand.nodes.filter($"is_station")
      .select($"lat", $"lon").as[(Double, Double)].collect()
    sel.selected.foreach { c =>
      val dMin = sts.map(s => Haversine.metres(c.lat, c.lon, s._1, s._2)).min
      assert(dMin > 250.0, s"candidate ${c.nodeId} is ${dMin}m from a station")
    }
  }

  test("pairwise: no two selected candidates are within 250 m") {
    val s = sel.selected
    for (a <- s; b <- s if a.nodeId < b.nodeId) {
      val d = Haversine.metres(a.lat, a.lon, b.lat, b.lon)
      assert(d >= 250.0, s"${a.nodeId} and ${b.nodeId} are ${d}m apart")
    }
  }

  test("selected candidates keep score = degree; rejected have score 0") {
    sel.candidates.foreach { c =>
      if (c.selected) assert(c.score === c.degree) else assert(c.score === 0L)
    }
  }

  test("output is sorted by score descending") {
    val scores = sel.candidates.map(_.score)
    assert(scores === scores.sortBy(-_))
  }

  test("every candidate node appears exactly once in the result") {
    import spark.implicits._
    val candIds = cand.nodes.filter(!$"is_station").select($"node_id").as[Long].collect().sorted
    assert(sel.candidates.map(_.nodeId).sorted === candIds.toSeq)
  }

  test("some candidates are selected and some rejected at this sf") {
    assert(sel.selected.nonEmpty, "no new stations selected")
    assert(sel.selected.size < sel.candidates.size, "all candidates selected")
  }

  test("pairwise pruning keeps the higher-degree member of close pairs") {
    // toy scenario: three candidates in a 200 m line, degrees 10, 5, 8;
    // fixed station far away with degree 1 (threshold=1)
    import spark.implicits._
    val mLat = Haversine.MetresPerDegLat
    val base = (53.33, -6.26)
    val nodes = Seq(
      (0L, 53.40, -6.40, true),
      (101L, base._1, base._2, false),
      (102L, base._1 + 100 / mLat, base._2, false),
      (103L, base._1 + 200 / mLat, base._2, false),
    ).toDF("node_id", "lat", "lon", "is_station")
    def trips(n: Int, a: Long, b: Long, offset: Int) =
      (0 until n).map(i => ((offset + i).toLong, a, b,
        java.sql.Timestamp.valueOf("2020-06-01 10:00:00")))
    // degrees: 101 -> 10, 102 -> 5, 103 -> 8 (as src), station 0 degree 2
    val t = (trips(1, 0L, 0L, 0) ++ trips(10, 101L, 101L, 100) ++
             trips(5, 102L, 102L, 200) ++ trips(8, 103L, 103L, 300))
      .toDF("rental_id", "src_node", "dst_node", "start_ts")
    val res = StationSelection.select(spark,
      CandidateGraph.Result(nodes, spark.emptyDataFrame, t, TemporalGraphs.counts(t)), minDistM = 250.0)
    // 101 and 102 are 100 m apart; 102 and 103 100 m; 101 and 103 200 m.
    // highest degree 101 survives; 102 and 103 both conflict with it.
    val selectedIds = res.selected.map(_.nodeId).toSet
    assert(selectedIds === Set(101L))
  }

  test("degree threshold rejects low-traffic candidates (toy)") {
    import spark.implicits._
    val nodes = Seq(
      (0L, 53.40, -6.40, true),
      (101L, 53.33, -6.26, false),
      (102L, 53.30, -6.20, false),
    ).toDF("node_id", "lat", "lon", "is_station")
    def trips(n: Int, a: Long, offset: Int) =
      (0 until n).map(i => ((offset + i).toLong, a, a,
        java.sql.Timestamp.valueOf("2020-06-01 10:00:00")))
    val t = (trips(5, 0L, 0) ++ trips(7, 101L, 100) ++ trips(2, 102L, 200))
      .toDF("rental_id", "src_node", "dst_node", "start_ts")
    val res = StationSelection.select(spark,
      CandidateGraph.Result(nodes, spark.emptyDataFrame, t, TemporalGraphs.counts(t)), minDistM = 250.0)
    // threshold = station degree = 10 (5 round trips); 101 has 14, 102 has 4
    assert(res.degreeThreshold === 10L)
    assert(res.selected.map(_.nodeId) === Seq(101L))
  }

  test("candidates near a station are rejected regardless of degree (toy)") {
    import spark.implicits._
    val mLat = Haversine.MetresPerDegLat
    val nodes = Seq(
      (0L, 53.33, -6.26, true),
      (101L, 53.33 + 200 / mLat, -6.26, false), // 200 m from station
      (102L, 53.33 + 400 / mLat, -6.26, false), // 400 m away
    ).toDF("node_id", "lat", "lon", "is_station")
    def trips(n: Int, a: Long, offset: Int) =
      (0 until n).map(i => ((offset + i).toLong, a, a,
        java.sql.Timestamp.valueOf("2020-06-01 10:00:00")))
    val t = (trips(1, 0L, 0) ++ trips(50, 101L, 100) ++ trips(50, 102L, 1000))
      .toDF("rental_id", "src_node", "dst_node", "start_ts")
    val res = StationSelection.select(spark,
      CandidateGraph.Result(nodes, spark.emptyDataFrame, t, TemporalGraphs.counts(t)), minDistM = 250.0)
    assert(res.selected.map(_.nodeId) === Seq(102L))
  }
}

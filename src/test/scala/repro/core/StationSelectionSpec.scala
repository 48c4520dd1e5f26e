package repro.core

import repro.{Oracle, SparkSpec}
import repro.geo.Haversine

/** Tests for Algorithm 1 (station ranking and selection). */
class StationSelectionSpec extends SparkSpec {

  private lazy val cand = repro.TestFixtures.candidate
  private lazy val sel = repro.TestFixtures.selection

  /** The toy candidate graph of `nodes`, in ascending id order, with
    * `roundTrips(n)` round trips at node n. Every toy trip is a Monday
    * 10:00 round trip, so its counts key is (node, node, 0, 10).
    */
  private def toy(nodes: Seq[CandidateGraph.Node], roundTrips: Map[Long, Long]): CandidateGraph.Result = {
    val counts = roundTrips.map { case (n, trips) => (n, n, 0, 10) -> trips }
    CandidateGraph.Result(nodes, Array.emptyLongArray, Array.emptyIntArray,
                          repro.TestFixtures.tripTable(nodes.map(_.id), counts), () => spark.emptyDataFrame)
  }

  /** Algorithm 1 on a [[toy]] candidate graph, checking that it starts no
    * Spark job.
    */
  private def selectToy(nodes: Seq[CandidateGraph.Node], roundTrips: Map[Long, Long],
                        minDistM: Double = 250.0): StationSelection.Result = {
    // first evaluated inside jobsStarted, which counts the jobs it starts
    lazy val res = StationSelection.select(spark, toy(nodes, roundTrips), minDistM)
    assert(jobsStarted(res) === 0)
    res
  }

  /** node id → degree, from the degrees by node position */
  private lazy val deg: Map[Long, Long] =
    cand.tripTable.ids.zip(StationSelection.degrees(cand.tripTable)).toMap

  test("degrees: sum of degrees equals 2 x trips") {
    val total = deg.values.sum
    assert(total === 2 * cand.trips.count())
  }

  test("degrees match an independent computation") {
    import spark.implicits._
    val out = cand.trips.groupBy($"src_node").count().as[(Long, Long)].collect().toMap
    val in = cand.trips.groupBy($"dst_node").count().as[(Long, Long)].collect().toMap
    deg.foreach { case (node, d) =>
      assert(d === out.getOrElse(node, 0L) + in.getOrElse(node, 0L))
    }
  }

  test("threshold is the minimum fixed-station degree") {
    val stationIds = cand.nodes.filter(_.isStation).map(_.id)
    val expected = stationIds.map(id => deg.getOrElse(id, 0L)).min
    assert(sel.degreeThreshold === expected)
    assert(deg(sel.thresholdStation) === expected)
    assert(stationIds.filter(deg(_) == expected).min === sel.thresholdStation)
  }

  test("select starts no Spark job once the candidate graph is collected") {
    assert(cand.tripTable.size > 0 && cand.nodes.nonEmpty)
    assert(jobsStarted(StationSelection.select(spark, cand)) === 0)
  }

  test("rule 3: every selected candidate meets the degree threshold") {
    sel.selected.foreach(c => assert(c.degree >= sel.degreeThreshold))
  }

  test("rule 4: every selected candidate is > 250 m from every fixed station") {
    val sts = cand.nodes.filter(_.isStation).map(s => (s.lat, s.lon))
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
    val candIds = cand.nodes.filterNot(_.isStation).map(_.id).sorted
    assert(sel.candidates.map(_.nodeId).sorted === candIds)
  }

  test("some candidates are selected and some rejected at this sf") {
    assert(sel.selected.nonEmpty, "no new stations selected")
    assert(sel.selected.size < sel.candidates.size, "all candidates selected")
  }

  test("pairwise pruning keeps the higher-degree member of close pairs") {
    // toy scenario: three candidates in a 200 m line, degrees 10, 5, 8;
    // fixed station far away with degree 1 (threshold=1)
    val mLat = Haversine.MetresPerDegLat
    val base = (53.33, -6.26)
    val nodes = Seq(
      CandidateGraph.Node(0L, 53.40, -6.40, isStation = true),
      CandidateGraph.Node(101L, base._1, base._2, isStation = false),
      CandidateGraph.Node(102L, base._1 + 100 / mLat, base._2, isStation = false),
      CandidateGraph.Node(103L, base._1 + 200 / mLat, base._2, isStation = false))
    // degrees: 101 -> 10, 102 -> 5, 103 -> 8 (as src), station 0 degree 2
    val res = selectToy(nodes, Map(0L -> 1L, 101L -> 10L, 102L -> 5L, 103L -> 8L))
    // 101 and 102 are 100 m apart; 102 and 103 100 m; 101 and 103 200 m.
    // highest degree 101 survives; 102 and 103 both conflict with it.
    val selectedIds = res.selected.map(_.nodeId).toSet
    assert(selectedIds === Set(101L))
  }

  test("pairwise pruning of equal degrees zeroes the larger id (toy)") {
    // two degree-10 candidates 100 m apart, far from the one station
    val mLat = Haversine.MetresPerDegLat
    val nodes = Seq(
      CandidateGraph.Node(0L, 53.40, -6.40, isStation = true),
      CandidateGraph.Node(101L, 53.33, -6.26, isStation = false),
      CandidateGraph.Node(102L, 53.33 + 100 / mLat, -6.26, isStation = false))
    val res = selectToy(nodes, Map(0L -> 1L, 101L -> 5L, 102L -> 5L))
    assert(res.selected.map(_.nodeId) === Seq(101L))
    assert(res.candidates.find(_.nodeId == 102L).map(c => (c.degree, c.score)) === Some((10L, 0L)))
  }

  test("degree threshold rejects low-traffic candidates (toy)") {
    val nodes = Seq(
      CandidateGraph.Node(0L, 53.40, -6.40, isStation = true),
      CandidateGraph.Node(101L, 53.33, -6.26, isStation = false),
      CandidateGraph.Node(102L, 53.30, -6.20, isStation = false))
    val res = selectToy(nodes, Map(0L -> 5L, 101L -> 7L, 102L -> 2L))
    // threshold = station degree = 10 (5 round trips); 101 has 14, 102 has 4
    assert(res.degreeThreshold === 10L)
    assert(res.selected.map(_.nodeId) === Seq(101L))
  }

  test("the funnel counts each rule's survivors and names the station that sets the threshold (toy)") {
    val mLat = Haversine.MetresPerDegLat
    val nodes = Seq(
      CandidateGraph.Node(0L, 53.40, -6.40, isStation = true),
      CandidateGraph.Node(1L, 53.33, -6.26, isStation = true),
      CandidateGraph.Node(101L, 53.33 + 100 / mLat, -6.26, isStation = false), // 100 m from station 1
      CandidateGraph.Node(102L, 53.30, -6.20, isStation = false),
      CandidateGraph.Node(103L, 53.30 + 100 / mLat, -6.20, isStation = false), // 100 m from 102
      CandidateGraph.Node(104L, 53.25, -6.10, isStation = false),
      CandidateGraph.Node(105L, 53.20, -6.00, isStation = false))
    // degrees: stations 0 -> 6 and 1 -> 4 (threshold 4, set by station 1);
    // 101 -> 20, 102 -> 10, 103 -> 8, 104 -> 6, 105 -> 2
    val res = selectToy(nodes, Map(0L -> 3L, 1L -> 2L, 101L -> 10L, 102L -> 5L, 103L -> 4L, 104L -> 3L, 105L -> 1L))
    assert((res.degreeThreshold, res.thresholdStation) === ((4L, 1L)))
    // 105 fails Rule 3; 101 fails Rule 4; pruning zeroes 103 against 102
    assert((res.degreePass, res.distancePass, res.pruned) === ((4, 3, 1)))
    assert(res.selected.map(_.nodeId) === Seq(102L, 104L))
  }

  test("candidates near a station are rejected regardless of degree (toy)") {
    val mLat = Haversine.MetresPerDegLat
    val nodes = Seq(
      CandidateGraph.Node(0L, 53.33, -6.26, isStation = true),
      CandidateGraph.Node(101L, 53.33 + 200 / mLat, -6.26, isStation = false), // 200 m from station
      CandidateGraph.Node(102L, 53.33 + 400 / mLat, -6.26, isStation = false)) // 400 m away
    val res = selectToy(nodes, Map(0L -> 1L, 101L -> 50L, 102L -> 50L))
    assert(res.selected.map(_.nodeId) === Seq(102L))
  }

  test("select equals the all-pairs oracle on 240 seeded toy graphs") {
    val rnd = new scala.util.Random(24)
    val mLat = Haversine.MetresPerDegLat
    /** a point up to `maxM` from (lat, lon), on a random bearing */
    def near(lat: Double, lon: Double, maxM: Double): (Double, Double) = {
      val (r, bearing) = (maxM * rnd.nextDouble(), 2 * math.Pi * rnd.nextDouble())
      (lat + r * math.cos(bearing) / mLat, lon + r * math.sin(bearing) / Haversine.metresPerDegLon(lat))
    }
    // per graph: whether two stations tie for the threshold, and the pruned count
    val seen = (0 until 240).map { g =>
      val (lat0, lon0) = (Seq(53.35, 64.1, -69.5, 78.2, 0.5)(g % 5), -6.26 + rnd.nextDouble())
      // 1-4 stations with 1-3 round trips each, so they often tie for the threshold
      val stations = Seq.tabulate(1 + rnd.nextInt(4)) { k =>
        val (la, lo) = near(lat0, lon0, 1500)
        CandidateGraph.Node(3L * k + 1, la, lo, isStation = true)
      }
      // 2-15 candidates in 1-4 clumps, each up to 400 m from its clump's
      // centre; one in ten repeats the previous candidate's point (0 m)
      val centres = Seq.fill(1 + rnd.nextInt(4))(near(lat0, lon0, 1500))
      val cands = (0 until 2 + rnd.nextInt(14)).foldLeft(Vector.empty[CandidateGraph.Node]) { (acc, k) =>
        val (la, lo) =
          if (acc.nonEmpty && rnd.nextInt(10) == 0) (acc.last.lat, acc.last.lon)
          else { val (cl, co) = centres(rnd.nextInt(centres.size)); near(cl, co, 400) }
        acc :+ CandidateGraph.Node(1000L + 2 * k + rnd.nextInt(2), la, lo, isStation = false)
      }
      // degrees 2-12 (1-6 round trips), so they often tie; some candidates have no trips
      val trips = stations.map(_.id -> (1L + rnd.nextInt(3))).toMap ++
        cands.filter(_ => rnd.nextInt(7) != 0).map(_.id -> (1L + rnd.nextInt(6)))
      // a third keep 250 m; a third take one candidate pair's exact distance,
      // lower id first as the pairs are measured; a third one candidate's
      // exact distance to a station, as Rule 4 measures it
      val minDistM = g % 3 match {
        case 0 => 250.0
        case 1 =>
          val ab = rnd.shuffle(cands.indices.toList).take(2).sorted
          val (a, b) = (cands(ab(0)), cands(ab(1)))
          Haversine.metres(a.lat, a.lon, b.lat, b.lon)
        case _ =>
          val (c, st) = (cands(rnd.nextInt(cands.size)), stations(rnd.nextInt(stations.size)))
          Haversine.metres(c.lat, c.lon, st.lat, st.lon)
      }
      val nodes = stations ++ cands
      val res = selectToy(nodes, trips, minDistM)
      assert(res === Oracle.PairScan.select(spark, toy(nodes, trips), minDistM), s"graph $g")
      (stations.count(s => 2 * trips(s.id) == res.degreeThreshold) > 1, res.pruned)
    }
    val (tied, pruned) = (seen.count(_._1), seen.map(_._2).sum)
    assert(tied > 20 && pruned > 100, (tied, pruned))
  }
}

package repro.core

import repro.{Oracle, SparkSpec}

/** Tests for the community summary tables (Tables IV-VI shape). */
class CommunityAnalysisSpec extends SparkSpec {

  // node_id, lat, lon, is_station (pre-existing), is_new
  private val toyNodes = Seq(
    (1L, 53.33, -6.26, true, false), (2L, 53.34, -6.27, true, false),
    (3L, 53.35, -6.28, false, true), (4L, 53.36, -6.29, false, true),
    (5L, 53.37, -6.30, true, false))
  // rental_id, src_node, dst_node
  private val toyTrips = Seq(
    (1L, 1L, 2L), (2L, 2L, 1L), (3L, 1L, 1L), // inside community A
    (4L, 3L, 4L), (5L, 4L, 3L),               // inside community B
    (6L, 1L, 3L), (7L, 4L, 2L),               // cross-community
    (8L, 5L, 5L))                             // singleton community C

  // every toy trip starts on a Monday at 10:00: day 0, hour 10
  private lazy val toy = SelectedGraph.Result(
    toyNodes.map { case (id, lat, lon, isStation, _) => CandidateGraph.Node(id, lat, lon, isStation) },
    Array.emptyLongArray, Array.emptyIntArray,
    repro.TestFixtures.tripTable(toyNodes.map(_._1),
                                 toyTrips.groupMapReduce { case (_, s, d) => (s, d, 0, 10) }(_ => 1L)(_ + _)),
    () => spark.emptyDataFrame)

  private val assign = Map(1L -> 1L, 2L -> 1L, 3L -> 3L, 4L -> 3L, 5L -> 5L)

  private lazy val summary = CommunityAnalysis.summarize(spark, toy, assign, modularity = 0.42)

  test("one row per community, renumbered 1..K by size") {
    assert(summary.nCommunities === 3)
    assert(summary.rows.map(_.communityId) === Seq(1L, 2L, 3L))
    assert(summary.rows.head.totalStations === 2L)
    assert(summary.rows.last.totalStations === 1L)
  }

  test("old/new station counts per community") {
    val bySize = summary.rows
    // communities of size 2: {1,2} old+old and {3,4} new+new
    val c12 = bySize.find(r => r.oldStations === 2L)
    val c34 = bySize.find(r => r.newStations === 2L)
    assert(c12.nonEmpty && c34.nonEmpty)
    assert(c12.get.newStations === 0L)
    assert(c34.get.oldStations === 0L)
  }

  test("within/out/in trip counts per community") {
    val c12 = summary.rows.find(_.oldStations === 2L).get
    assert(c12.within === 3L) // trips 1,2,3
    assert(c12.out === 1L)    // trip 6
    assert(c12.in === 1L)     // trip 7
    assert(c12.total === 5L)
    val c34 = summary.rows.find(_.newStations === 2L).get
    assert(c34.within === 2L)
    assert(c34.out === 1L)
    assert(c34.in === 1L)
    val c5 = summary.rows.find(_.totalStations === 1L).get
    assert(c5.within === 1L && c5.out === 0L && c5.in === 0L)
  }

  test("trip totals are conserved: sum(within) + sum(out) = all trips") {
    val within = summary.rows.map(_.within).sum
    val out = summary.rows.map(_.out).sum
    val in = summary.rows.map(_.in).sum
    assert(within + out === 8L)
    assert(out === in)
  }

  test("self-containment ratio") {
    assert(math.abs(summary.selfContainment - 6.0 / 8.0) < 1e-12)
  }

  test("modularity is carried through") {
    assert(summary.modularity === 0.42)
  }

  // DuckDB tables are VARCHAR: community ids are cast before ordering
  private val rankedSql =
    """ranked AS (
      |  SELECT CAST(c.community AS BIGINT) AS community,
      |         CAST(SUM(CASE WHEN n.is_new = 'true' THEN 0 ELSE 1 END) AS BIGINT) AS old_st,
      |         CAST(SUM(CASE WHEN n.is_new = 'true' THEN 1 ELSE 0 END) AS BIGINT) AS new_st,
      |         CAST(COUNT(*) AS BIGINT) AS total_st,
      |         ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, CAST(c.community AS BIGINT)) AS community_id
      |  FROM nodes n JOIN comm c ON n.node_id = c.node_id
      |  GROUP BY c.community)""".stripMargin

  // the oracle reads the toy's raw rows, not the graph built from them
  private def oracleTables = {
    import spark.implicits._
    Seq("nodes" -> toyNodes.map { case (id, _, _, _, isNew) => (id, isNew.toString) }.toDF("node_id", "is_new"),
        "trips" -> toyTrips.toDF("rental_id", "src_node", "dst_node"),
        "comm" -> assign.toSeq.toDF("node_id", "community"))
  }

  test("station membership counts match DuckDB oracle") {
    import spark.implicits._
    val rows = summary.rows.map(r => (r.communityId, r.oldStations, r.newStations, r.totalStations))
      .toDF("community_id", "old_st", "new_st", "total_st")
    Oracle.assertEquivalent(rows,
      s"""WITH $rankedSql
         |SELECT CAST(community_id AS BIGINT) AS community_id, old_st, new_st, total_st
         |FROM ranked""".stripMargin,
      oracleTables: _*)
  }

  test("within/out/in matches DuckDB oracle") {
    import spark.implicits._
    val rows = summary.rows.map(r => (r.communityId, r.within, r.out, r.in))
      .toDF("community_id", "within", "out", "in")
    Oracle.assertEquivalent(rows,
      s"""WITH $rankedSql,
         |tc AS (
         |  SELECT CAST(cs.community AS BIGINT) AS c_src, CAST(cd.community AS BIGINT) AS c_dst
         |  FROM trips t
         |  JOIN comm cs ON t.src_node = cs.node_id
         |  JOIN comm cd ON t.dst_node = cd.node_id)
         |SELECT CAST(r.community_id AS BIGINT) AS community_id,
         |  CAST((SELECT COUNT(*) FROM tc WHERE c_src = r.community AND c_dst = r.community) AS BIGINT) AS within,
         |  CAST((SELECT COUNT(*) FROM tc WHERE c_src = r.community AND c_dst <> r.community) AS BIGINT) AS "out",
         |  CAST((SELECT COUNT(*) FROM tc WHERE c_dst = r.community AND c_src <> r.community) AS BIGINT) AS "in"
         |FROM ranked r""".stripMargin,
      oracleTables: _*)
  }

  test("a node missing from the community map fails instead of dropping its trips") {
    val e = intercept[IllegalArgumentException] {
      CommunityAnalysis.summarize(spark, toy, assign - 4L, modularity = 0.0)
    }
    assert(e.getMessage.contains("node 4 "))
  }

  test("empty communities never appear (every row has >= 1 station)") {
    assert(summary.rows.forall(_.totalStations >= 1))
  }
}

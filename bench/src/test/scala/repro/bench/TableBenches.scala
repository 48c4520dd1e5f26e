package repro.bench

import repro.SparkSpec
import repro.core.TemporalGraphs.{TDay, THour, TNull}
import repro.report.PaperTables

/** Table I bench: dataset overview, original vs cleaned.
  *
  * The synthetic generator is calibrated to the paper's exact counts, so
  * this table reproduces Table I to the row.
  */
class Table1Bench extends SparkSpec {
  test("Table I — dataset overview (paper vs measured)") {
    val r = BenchFixtures.result.report
    println(PaperTables.tableI(r))
    assert(r.origStations === 95L)
    assert(r.cleanStations === 92L)
    assert(r.origRentals === 62324L)
    assert(r.cleanRentals === 61872L)
    assert(r.origLocations === 14239L)
    assert(r.cleanLocations === 14156L)
  }
}

/** Table II bench: candidate graph produced by HAC.
  *
  * Absolute counts depend on synthetic geography; the shape targets are
  * the paper's scale (~1.1k nodes from 14k locations, trips conserved).
  */
class Table2Bench extends SparkSpec {
  test("Table II — candidate graph (paper vs measured)") {
    val s = BenchFixtures.candidateStats
    println(PaperTables.tableII(s))
    assert(s.nTrips === 61872L, "trips must be conserved exactly")
    assert(s.nStationNodes === 92L)
    // paper: 1,172 nodes (92 stations + 1,080 candidates)
    assert(s.nNodes > 700 && s.nNodes < 2000, s"nodes ${s.nNodes} out of shape")
    assert(s.directedEdges >= s.undirectedEdges)
    assert(s.undirectedEdges - s.undirectedEdgesNoLoops ===
           s.directedEdges - s.directedEdgesNoLoops)
    // graph is sparse like the paper's (8,240 undirected over 1,172 nodes):
    // far below the complete graph, far above a tree
    assert(s.undirectedEdges > s.nNodes)
    assert(s.undirectedEdges < s.nNodes * s.nNodes / 10)
  }
}

/** Table III bench: Algorithm 1 selection + redirection.
  *
  * Shape targets: expansion adds new stations on the order of the paper's
  * 146 (not zero, not uncontrolled), pre-existing stations keep the large
  * majority of trips (paper: 54,670 / 61,872 ≈ 88 %), totals conserved.
  */
class Table3Bench extends SparkSpec {
  test("Table III — selected graph (paper vs measured)") {
    val s = BenchFixtures.selectedStats
    println(PaperTables.tableIII(s))
    assert(s.totalTrips === 61872L)
    assert(s.preExisting.stations === 92L)
    assert(s.selected.stations > 40, s"only ${s.selected.stations} new stations")
    assert(s.selected.stations < 500, s"${s.selected.stations} new stations: uncontrolled")
    assert(s.totalStations === s.preExisting.stations + s.selected.stations)
    assert(s.preExisting.tripsFrom + s.selected.tripsFrom === s.totalTrips)
    assert(s.preExisting.tripsTo + s.selected.tripsTo === s.totalTrips)
    val share = s.preExisting.tripsFrom.toDouble / s.totalTrips
    assert(share > 0.7 && share < 0.98, s"pre-existing from-share $share vs paper 0.88")
  }
}

/** Table IV bench: Louvain on G_Basic (paper: 3 communities, Q=0.25,
  * ~74 % of trips within-community).
  */
class Table4Bench extends SparkSpec {
  test("Table IV — G_Basic communities (paper vs measured)") {
    val s = BenchFixtures.basic.summary
    println(PaperTables.community(TNull, s))
    assert(s.nCommunities >= 2 && s.nCommunities <= 8,
      s"${s.nCommunities} communities vs paper 3")
    assert(s.modularity > 0.1 && s.modularity < 0.6,
      s"Q=${s.modularity} vs paper 0.25")
    assert(s.selfContainment > 0.55 && s.selfContainment < 0.95,
      s"self-containment ${s.selfContainment} vs paper ~0.74")
    assert(s.rows.map(_.totalStations).sum === BenchFixtures.selectedStats.totalStations)
    val within = s.rows.map(_.within).sum
    val out = s.rows.map(_.out).sum
    assert(within + out === 61872L)
  }
}

/** Table V bench: Louvain on G_Day (paper: 7 communities, Q=0.32). */
class Table5Bench extends SparkSpec {
  test("Table V — G_Day communities (paper vs measured)") {
    val s = BenchFixtures.day.summary
    val b = BenchFixtures.basic.summary
    println(PaperTables.community(TDay, s))
    assert(s.nCommunities >= b.nCommunities,
      s"day ${s.nCommunities} < basic ${b.nCommunities}")
    assert(s.modularity > b.modularity - 0.02,
      s"day Q=${s.modularity} collapsed below basic Q=${b.modularity}")
    assert(s.rows.map(_.within).sum + s.rows.map(_.out).sum === 61872L)
  }
}

/** Table VI bench: Louvain on G_Hour (paper: 10 communities, Q=0.54 —
  * the finest granularity gives the most and strongest communities).
  */
class Table6Bench extends SparkSpec {
  test("Table VI — G_Hour communities (paper vs measured)") {
    val s = BenchFixtures.hourly.summary
    val b = BenchFixtures.basic.summary
    val d = BenchFixtures.day.summary
    println(PaperTables.community(THour, s))
    assert(s.nCommunities >= b.nCommunities,
      s"hour ${s.nCommunities} < basic ${b.nCommunities}")
    assert(s.modularity > b.modularity,
      s"hour Q=${s.modularity} not above basic Q=${b.modularity}")
    assert(s.rows.map(_.within).sum + s.rows.map(_.out).sum === 61872L)
    // the paper's headline ordering: Q rises with temporal granularity
    val qs = Seq(b.modularity, d.modularity, s.modularity)
    assert(qs.last === qs.max, s"Q ordering $qs does not peak at G_Hour")
  }
}

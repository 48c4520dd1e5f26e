package repro.report

import repro.core.{CandidateGraph, CommunityAnalysis, SelectedGraph, TemporalGraphs}
import repro.core.TemporalGraphs.{TDay, THour, TNull}
import repro.data.Cleaning

/** Rendering of the paper's evaluation tables (I–VI) with the published
  * numbers printed next to the measured ones, so a reader can diff shape.
  * The same renderers feed the spark-submit jobs and the bench suites;
  * EXPERIMENTS.md records one full bench run.
  */
object PaperTables {

  /** Paper Table I. */
  val PaperStations = (95L, 92L)
  val PaperRentals = (62324L, 61872L)
  val PaperLocations = (14239L, 14156L)

  /** Paper Table II. */
  val PaperCandidate = Map(
    "nodes" -> 1172L, "undirected" -> 8240L, "undirectedNoLoops" -> 7820L,
    "directed" -> 16042L, "directedNoLoops" -> 15604L, "trips" -> 61872L)

  /** Paper Table III: (stations, tripsFrom, tripsTo, edgesFrom, edgesTo). */
  val PaperSelectedPre = (92L, 54670L, 54727L, 6437L, 6310L)
  val PaperSelectedNew = (146L, 7202L, 7145L, 2072L, 2199L)
  val PaperSelectedTotal = (238L, 61872L, 8509L)

  /** Paper Tables IV-VI: (communities, modularity) and per-community rows
    * (old, new, within, out, in).
    */
  val PaperBasic = (3, 0.25)
  val PaperBasicRows = Seq((40L, 18L, 12012L, 5238L, 5255L),
                           (4L, 94L, 9158L, 4078L, 3995L),
                           (48L, 34L, 24494L, 6892L, 6958L))
  val PaperDay = (7, 0.32)
  val PaperDayRows = Seq((15L, 16L, 8517L, 3516L, 3522L), (0L, 22L, 551L, 227L, 238L),
                         (14L, 16L, 3983L, 3995L, 4049L), (0L, 27L, 551L, 179L, 170L),
                         (36L, 16L, 11555L, 4949L, 4933L), (0L, 32L, 1411L, 450L, 414L),
                         (27L, 17L, 16328L, 5660L, 5650L))
  val PaperHour = (10, 0.54)
  val PaperHourRows = Seq((9L, 4L, 5422L, 1706L, 1704L), (13L, 11L, 1774L, 1930L, 1944L),
                          (11L, 9L, 4762L, 4062L, 4083L), (10L, 9L, 2379L, 2833L, 2825L),
                          (14L, 0L, 8313L, 4974L, 4991L), (15L, 14L, 3234L, 3613L, 3656L),
                          (6L, 18L, 4186L, 1161L, 1175L), (9L, 17L, 5450L, 2310L, 2256L),
                          (1L, 30L, 767L, 221L, 207L), (4L, 34L, 1912L, 863L, 832L))
  /** Paper §V-C: ~74 % of G_Basic trips start and end in one community. */
  val PaperSelfContainment = 0.74

  private def row(cells: Seq[Any], widths: Seq[Int]): String =
    cells.zip(widths).map { case (c, w) => c.toString.reverse.padTo(w, ' ').reverse }
      .mkString("| ", " | ", " |")

  def tableI(r: Cleaning.Report): String = {
    val w = Seq(18, 10, 10, 10, 10)
    Seq(
      "TABLE I — Dataset overview (original vs cleaned)",
      row(Seq("measure", "paper-orig", "ours-orig", "paper-clean", "ours-clean"), w),
      row(Seq("#stations", PaperStations._1, r.origStations, PaperStations._2, r.cleanStations), w),
      row(Seq("#rental", PaperRentals._1, r.origRentals, PaperRentals._2, r.cleanRentals), w),
      row(Seq("#location", PaperLocations._1, r.origLocations, PaperLocations._2, r.cleanLocations), w),
    ).mkString("\n")
  }

  def tableII(s: CandidateGraph.Stats): String = {
    val w = Seq(30, 10, 10)
    Seq(
      "TABLE II — Candidate graph (HAC output)",
      row(Seq("measure", "paper", "ours"), w),
      row(Seq("#nodes", PaperCandidate("nodes"), s.nNodes), w),
      row(Seq("  of which candidates", PaperCandidate("nodes") - 92, s.nCandidateNodes), w),
      row(Seq("#undirected edges", PaperCandidate("undirected"), s.undirectedEdges), w),
      row(Seq("#undirected edges (no loops)", PaperCandidate("undirectedNoLoops"), s.undirectedEdgesNoLoops), w),
      row(Seq("#directed edges", PaperCandidate("directed"), s.directedEdges), w),
      row(Seq("#directed edges (no loops)", PaperCandidate("directedNoLoops"), s.directedEdgesNoLoops), w),
      row(Seq("#trips", PaperCandidate("trips"), s.nTrips), w),
    ).mkString("\n")
  }

  def tableIII(s: SelectedGraph.Stats): String = {
    val w = Seq(14, 16, 16, 16, 16, 16)
    def fmt(p: (Long, Long, Long, Long, Long), g: SelectedGraph.GroupStats) = Seq(
      s"${p._1} / ${g.stations}", s"${p._2} / ${g.tripsFrom}", s"${p._3} / ${g.tripsTo}",
      s"${p._4} / ${g.edgesFrom}", s"${p._5} / ${g.edgesTo}")
    Seq(
      "TABLE III — Selected graph (paper / ours)",
      row(Seq("group", "stations", "trips from", "trips to", "edges from", "edges to"), w),
      row("pre-existing" +: fmt(PaperSelectedPre, s.preExisting), w),
      row("selected" +: fmt(PaperSelectedNew, s.selected), w),
      row(Seq("total",
        s"${PaperSelectedTotal._1} / ${s.totalStations}",
        s"${PaperSelectedTotal._2} / ${s.totalTrips}", "",
        s"${PaperSelectedTotal._3} / ${s.totalEdges}", ""), w),
    ).mkString("\n")
  }

  /** Tables IV/V/VI share a layout; pass the matching paper reference. */
  def tableCommunity(name: String, paper: (Int, Double),
                     paperRows: Seq[(Long, Long, Long, Long, Long)],
                     s: CommunityAnalysis.Summary): String = {
    val w = Seq(4, 6, 6, 6, 8, 8, 8, 9)
    val header = Seq(
      s"$name — communities: paper ${paper._1} @ Q=${paper._2}, " +
        f"ours ${s.nCommunities} @ Q=${s.modularity}%.2f " +
        f"(self-contained: paper ~${PaperSelfContainment * 100}%.0f%%, ours ${s.selfContainment * 100}%.0f%%)",
      row(Seq("id", "old", "new", "total", "within", "out", "in", "total"), w))
    val ours = s.rows.map { r =>
      row(Seq(r.communityId, r.oldStations, r.newStations, r.totalStations,
              r.within, r.out, r.in, r.total), w)
    }
    val ref = paperRows.zipWithIndex.map { case (p, i) =>
      row(Seq(s"P${i + 1}", p._1, p._2, p._1 + p._2, p._3, p._4, p._5,
              p._3 + p._4 + p._5), w)
    }
    (header ++ Seq("measured:") ++ ours ++ Seq("paper:") ++ ref).mkString("\n")
  }

  /** Table IV, V or VI: the community table of a granularity. */
  def community(g: TemporalGraphs.Granularity, s: CommunityAnalysis.Summary): String = g match {
    case TNull => tableCommunity("TABLE IV — G_Basic", PaperBasic, PaperBasicRows, s)
    case TDay => tableCommunity("TABLE V — G_Day", PaperDay, PaperDayRows, s)
    case THour => tableCommunity("TABLE VI — G_Hour", PaperHour, PaperHourRows, s)
  }
}

package repro.report

import repro.SparkSpec
import repro.core.{CandidateGraph, CommunityAnalysis, SelectedGraph}
import repro.core.TemporalGraphs.{TDay, THour, TNull}
import repro.data.Cleaning

/** Tests for the paper-vs-measured table renderers. */
class PaperTablesSpec extends SparkSpec {

  private val report = Cleaning.Report(95, 92, 62324, 61872, 14239, 14156)

  test("paper reference constants are internally consistent") {
    // Table I cleaned totals feed Tables II/III
    assert(PaperTables.PaperRentals._2 === PaperTables.PaperCandidate("trips"))
    assert(PaperTables.PaperSelectedTotal._2 === PaperTables.PaperRentals._2)
    // Table III: stations add up
    assert(PaperTables.PaperSelectedPre._1 + PaperTables.PaperSelectedNew._1 ===
           PaperTables.PaperSelectedTotal._1)
    // trips from/to add up to the total
    assert(PaperTables.PaperSelectedPre._2 + PaperTables.PaperSelectedNew._2 ===
           PaperTables.PaperSelectedTotal._2)
    assert(PaperTables.PaperSelectedPre._4 + PaperTables.PaperSelectedNew._4 ===
           PaperTables.PaperSelectedTotal._3)
  }

  test("paper community rows sum to the cleaned trip count") {
    for (rows <- Seq(PaperTables.PaperBasicRows, PaperTables.PaperDayRows,
                     PaperTables.PaperHourRows)) {
      val within = rows.map(_._3).sum
      val out = rows.map(_._4).sum
      assert(within + out === 61872L, s"within+out = ${within + out}")
    }
  }

  test("paper community rows have balanced in/out totals") {
    for (rows <- Seq(PaperTables.PaperBasicRows, PaperTables.PaperDayRows,
                     PaperTables.PaperHourRows)) {
      // every trip that leaves one community enters another
      assert(rows.map(_._4).sum === rows.map(_._5).sum)
    }
  }

  test("paper station totals per granularity equal 238") {
    assert(PaperTables.PaperBasicRows.map(r => r._1 + r._2).sum === 238L)
    assert(PaperTables.PaperDayRows.map(r => r._1 + r._2).sum === 238L)
    assert(PaperTables.PaperHourRows.map(r => r._1 + r._2).sum === 238L)
  }

  test("tableI renders both paper and measured values") {
    val s = PaperTables.tableI(report)
    assert(s.contains("62324") && s.contains("61872"))
    assert(s.contains("14239") && s.contains("14156"))
    assert(s.contains("TABLE I"))
  }

  test("tableII renders all six measures") {
    val stats = CandidateGraph.Stats(1141, 92, 1049, 14685, 14225, 21301, 20841, 61872)
    val s = PaperTables.tableII(stats)
    for (v <- Seq("1172", "8240", "7820", "16042", "15604", "1141", "21301"))
      assert(s.contains(v), s"missing $v")
  }

  test("tableIII renders paper/ours side by side") {
    val stats = SelectedGraph.Stats(
      SelectedGraph.GroupStats(92, 51604, 52400, 9203, 9699),
      SelectedGraph.GroupStats(137, 10268, 9472, 4410, 3914),
      229, 61872, 13613)
    val s = PaperTables.tableIII(stats)
    assert(s.contains("92 / 92"))
    assert(s.contains("146 / 137"))
    assert(s.contains("238 / 229"))
  }

  test("tableCommunity renders measured rows, paper rows and headline") {
    val summary = CommunityAnalysis.Summary(
      Seq(CommunityAnalysis.CommunityRow(1, 40, 18, 58, 12000, 5000, 5100),
          CommunityAnalysis.CommunityRow(2, 52, 128, 180, 30000, 4872, 4772)),
      modularity = 0.25)
    val s = PaperTables.tableCommunity("TABLE IV — G_Basic",
      PaperTables.PaperBasic, PaperTables.PaperBasicRows, summary)
    assert(s.contains("paper 3 @ Q=0.25"))
    assert(s.contains("ours 2 @ Q=0.25"))
    assert(s.contains("measured:") && s.contains("paper:"))
    assert(s.contains("12012")) // paper row values present
  }

  test("community titles and references each granularity's table as the paper does") {
    val summary = CommunityAnalysis.Summary(
      Seq(CommunityAnalysis.CommunityRow(1, 40, 18, 58, 12000, 5000, 5100)), modularity = 0.3)
    assert(PaperTables.community(TNull, summary) === PaperTables.tableCommunity("TABLE IV — G_Basic",
      PaperTables.PaperBasic, PaperTables.PaperBasicRows, summary))
    assert(PaperTables.community(TDay, summary) === PaperTables.tableCommunity("TABLE V — G_Day",
      PaperTables.PaperDay, PaperTables.PaperDayRows, summary))
    assert(PaperTables.community(THour, summary) === PaperTables.tableCommunity("TABLE VI — G_Hour",
      PaperTables.PaperHour, PaperTables.PaperHourRows, summary))
  }

  test("self-containment in the headline uses within/(within+out)") {
    val summary = CommunityAnalysis.Summary(
      Seq(CommunityAnalysis.CommunityRow(1, 1, 0, 1, 75, 25, 25)), 0.1)
    assert(math.abs(summary.selfContainment - 0.75) < 1e-12)
    val s = PaperTables.tableCommunity("X", (1, 0.1), Seq((1L, 0L, 75L, 25L, 25L)), summary)
    assert(s.contains("75%"))
  }

  test("the self-containment headline renders the paper's constant") {
    val summary = CommunityAnalysis.Summary(
      Seq(CommunityAnalysis.CommunityRow(1, 1, 0, 1, 75, 25, 25)), 0.1)
    val header = PaperTables.tableCommunity("X", (1, 0.1), Seq((1L, 0L, 75L, 25L, 25L)), summary)
      .linesIterator.next()
    assert(PaperTables.PaperSelfContainment === 0.74)
    assert(header === "X — communities: paper 1 @ Q=0.1, ours 1 @ Q=0.10 (self-contained: paper ~74%, ours 75%)")
  }
}

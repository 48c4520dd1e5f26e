package repro.core

import org.apache.spark.sql.SparkSession
import repro.community.Louvain
import repro.data.{Cleaning, MobySynth}
import repro.data.MobySchema.MobyData

/** End-to-end orchestration of the paper's three-step methodology:
  * generate → clean → candidate graph (HAC) → Algorithm 1 selection →
  * selected graph → Louvain at three temporal granularities.
  */
object Pipeline {

  /** A run's scale factor and seed; the thresholds are the paper's §IV values (metres). */
  final case class Config(sf: Double = 1.0, seed: Long = 7L) {
    require(sf > 0 && sf < Double.PositiveInfinity,
            s"the scale factor must be a positive finite number, not $sf")
    val preAssignM = 50.0
    val hacCutM = 100.0
    val centroidSepM = 50.0
    val minDistM = 250.0
  }

  final case class CommunityResult(granularity: TemporalGraphs.Granularity,
                                   summary: CommunityAnalysis.Summary)

  final case class Result(raw: MobyData, clean: Cleaning.CleanData, report: Cleaning.Report,
                          candidate: CandidateGraph.Result,
                          selection: StationSelection.Result,
                          selected: SelectedGraph.Result)

  /** Run generation through station selection (Tables I–III). The one
    * Spark job is `Cleaning.clean`'s read of the rentals: each partition
    * keeps the surviving rentals without a shuffle, and the driver
    * concatenates them into one trip table. Every later stage reads that
    * table, relabelled, on the driver, and no stage runs a Spark SQL query.
    */
  def run(spark: SparkSession, cfg: Config = Config()): Result = {
    val raw = MobySynth.generate(spark, cfg.sf, cfg.seed)
    val clean = Cleaning.clean(raw)
    val report = Cleaning.report(raw, clean)
    val candidate = CandidateGraph.build(spark, clean,
      preAssignM = cfg.preAssignM, hacCutM = cfg.hacCutM, centroidSepM = cfg.centroidSepM)
    val selection = StationSelection.select(spark, candidate, minDistM = cfg.minDistM)
    val selected = SelectedGraph.build(spark, candidate, selection)
    Result(raw, clean, report, candidate, selection, selected)
  }

  /** Exact sequential Louvain + community summary on the selected graph
    * at a granularity (Tables IV–VI). The selected graph has ~230 nodes,
    * so its edges are weighted from its trip table and clustered on the
    * driver, without a Spark job; Q is
    * [[repro.community.Modularity.local]] of the final assignment.
    */
  def communities(spark: SparkSession, selected: SelectedGraph.Result,
                  g: TemporalGraphs.Granularity): CommunityResult = {
    val louvain = Louvain.run(TemporalGraphs.weights(selected.tripTable, g))
    // stations without edges become singleton communities
    val full = selected.tripTable.ids.map(n => n -> louvain.community.getOrElse(n, n)).toMap
    CommunityResult(g, CommunityAnalysis.summarize(spark, selected, full, louvain.modularity))
  }
}

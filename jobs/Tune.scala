package repro.jobs

import repro.community.Louvain
import repro.core._

/** Calibration sweep (not part of the reproduction tables): prints the
  * selection funnel and a Louvain sweep over affinity blends so generator
  * knobs can be matched to the paper's Tables II–VI shapes.
  *
  * Usage: sbt "runMain repro.jobs.Tune [sf] [seed]"
  */
object Tune {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-tune", args) { (_, res) =>
      val s2 = res.candidate.stats
      println(s"TableII: nodes=${s2.nNodes} undirected=${s2.undirectedEdges} " +
        s"directed=${s2.directedEdges} trips=${s2.nTrips}")
      val sel = res.selection
      println(s"selection: threshold=${sel.degreeThreshold} (station ${sel.thresholdStation}) " +
        s"candidates=${sel.candidates.size} passDegree=${sel.degreePass} passDistance=${sel.distancePass} " +
        s"pruned=${sel.pruned} selected=${sel.selected.size}")
      val s3 = res.selected.stats
      println(s"TableIII: total=${s3.totalStations} preFrom=${s3.preExisting.tripsFrom} " +
        s"selFrom=${s3.selected.tripsFrom} edges=${s3.totalEdges}")

      for (g <- Seq(TemporalGraphs.TNull, TemporalGraphs.TDay, TemporalGraphs.THour);
           gamma <- if (g == TemporalGraphs.TNull) Seq(1.0) else Seq(2.0, 3.0, 4.0, 5.0, 6.0)) {
        val r = Louvain.run(TemporalGraphs.weights(res.selected.tripTable, g, gamma))
        val nComm = r.community.values.toSet.size
        println(f"louvain ${g.name}%-7s gamma=$gamma%.1f -> communities=$nComm Q=${r.modularity}%.3f")
      }
    }
}

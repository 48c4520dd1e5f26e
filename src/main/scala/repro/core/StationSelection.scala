package repro.core

import org.apache.spark.sql.SparkSession
import repro.geo.{Haversine, PointTable}

/** The paper's Algorithm 1 — station ranking and selection.
  *
  * Degree of a node = number of trips starting there + number ending
  * there (a round trip contributes to both sides). The selection rules:
  *
  *   - Rule 3 (degree threshold): a candidate scores 0 if its degree is
  *     below the minimum fixed-station degree;
  *   - Rule 4 (secondary distance): a candidate scores 0 if its centroid
  *     is within `minDistM` (250 m) of a fixed station;
  *   - pairwise pruning: of any two surviving candidates within
  *     `minDistM` of each other, the lower-degree one is zeroed;
  *   - survivors, ranked by score descending, become new stations.
  *
  * Everything runs on the driver over the candidate graph's edge counts
  * and nodes (≈1k nodes at sf=1); no Spark job starts.
  */
object StationSelection {

  final case class Candidate(nodeId: Long, lat: Double, lon: Double,
                             degree: Long, score: Long, selected: Boolean)

  final case class Result(candidates: Seq[Candidate], degreeThreshold: Long) {
    def selected: Seq[Candidate] = candidates.filter(_.selected)
  }

  /** Per-node degree: trips from + trips to. Nodes without trips are absent. */
  def degrees(edgeTrips: Map[(Long, Long), Long]): Map[Long, Long] =
    edgeTrips.toSeq
      .flatMap { case ((s, d), n) => Seq(s -> n, d -> n) }
      .groupMapReduce(_._1)(_._2)(_ + _)

  def select(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
             candidate: CandidateGraph.Result, minDistM: Double = 250.0): Result = {
    val deg = degrees(candidate.edgeTrips).withDefaultValue(0L)
    val stations = candidate.nodes.filter(_.isStation)
    require(stations.nonEmpty, "no fixed stations")
    val threshold = stations.map(s => deg(s.id)).min
    val stationPoints =
      PointTable(stations.map(_.id).toArray, stations.map(_.lat).toArray, stations.map(_.lon).toArray)

    final case class C(id: Long, lat: Double, lon: Double, deg: Long, var score: Long)
    val cands = candidate.nodes.filterNot(_.isStation).sortBy(_.id)
      .map(n => C(n.id, n.lat, n.lon, deg(n.id), deg(n.id)))

    // Rules 3 and 4
    for (c <- cands) {
      if (c.deg < threshold) c.score = 0
      else if (Haversine.nearest(c.lat, c.lon, stationPoints)._1 <= minDistM) c.score = 0
    }

    // pairwise pruning in one id-ordered pass: scores only fall to 0, so
    // once a pair is checked one of the two is zero or they are far apart,
    // and a second pass would change nothing
    val alive = cands.filter(_.score > 0)
    for (i <- alive.indices; j <- i + 1 until alive.length) {
      val a = alive(i); val b = alive(j)
      if (a.score > 0 && b.score > 0 &&
          Haversine.metres(a.lat, a.lon, b.lat, b.lon) < minDistM) {
        // zero the lower-degree station; break id ties deterministically
        val loser = if (a.deg < b.deg || (a.deg == b.deg && a.id > b.id)) a else b
        loser.score = 0
      }
    }

    val out = cands.sortBy(c => (-c.score, c.id))
      .map(c => Candidate(c.id, c.lat, c.lon, c.deg, c.score, c.score > 0))
    Result(out, threshold)
  }
}

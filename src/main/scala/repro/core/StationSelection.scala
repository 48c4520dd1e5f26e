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

  /** @param candidates       every candidate, by score descending, then id
    * @param degreeThreshold  the least fixed-station degree (Rule 3)
    * @param thresholdStation the station with that degree, the least id on a tie
    * @param degreePass       the candidates that pass Rule 3
    * @param distancePass     of those, the ones that have trips and lie more
    *                         than `minDistM` from every fixed station (Rule 4)
    * @param pruned           of those, the ones pairwise pruning zeroes; the
    *                         rest are selected
    */
  final case class Result(candidates: Seq[Candidate], degreeThreshold: Long, thresholdStation: Long,
                          degreePass: Int, distancePass: Int, pruned: Int) {
    def selected: Seq[Candidate] = candidates.filter(_.selected)
  }

  /** Per-node degree, trips from + trips to, by node position in `t.ids`:
    * the one-slice activity profile.
    */
  def degrees(t: TemporalGraphs.TripTable): Array[Long] = TemporalGraphs.profiles(t, TemporalGraphs.TNull)

  def select(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
             candidate: CandidateGraph.Result, minDistM: Double = 250.0): Result = {
    // positions ascend with ids, so the candidates come in id order
    val (stations, others) = candidate.nodes.zip(degrees(candidate.tripTable)).partition(_._1.isStation)
    require(stations.nonEmpty, "no fixed stations")
    val (setter, threshold) = stations.minBy(_._2)
    val stationPoints = PointTable(stations.map(_._1.id).toArray, stations.map(_._1.lat).toArray,
                                   stations.map(_._1.lon).toArray)

    final case class C(id: Long, lat: Double, lon: Double, deg: Long, var score: Long)
    val cands = others.map { case (n, d) => C(n.id, n.lat, n.lon, d, 0L) }

    // Rules 3 and 4; a candidate without trips has nothing to rank
    val degreePass = cands.filter(_.deg >= threshold)
    val alive = degreePass.filter(c => c.deg > 0 && !(Haversine.nearest(c.lat, c.lon, stationPoints)._1 <= minDistM))
    for (c <- alive) c.score = c.deg

    // pairwise pruning in one id-ordered pass: scores only fall to 0, so
    // once a pair is checked one of the two is zero or they are far apart,
    // and a second pass would change nothing
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
    Result(out, threshold, setter.id, degreePass.size, alive.size, alive.count(_.score == 0))
  }
}

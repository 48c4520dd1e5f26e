package repro.core

import org.apache.spark.sql.SparkSession
import repro.cluster.SpatialGrid
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
  *     `minDistM` of each other, the lower-degree one is zeroed. The
  *     close pairs are the ones `SpatialGrid.pairs` finds among the Rule 4
  *     survivors, visited in id order (by the lower id, then the higher);
  *     a pair whose member is already zeroed is skipped, and of two equal
  *     degrees the higher id is zeroed;
  *   - survivors, ranked by score descending, become new stations.
  *
  * Everything runs on the driver, over the candidate trip table and nodes
  * by node position (≈1k nodes at sf=1); no Spark job starts.
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
    // positions ascend with ids, so every list of positions is in id order
    val nodes = candidate.nodes.toIndexedSeq
    val points = PointTable(nodes.map(_.id).toArray, nodes.map(_.lat).toArray, nodes.map(_.lon).toArray)
    val deg = degrees(candidate.tripTable)
    val (stations, cands) = nodes.indices.partition(nodes(_).isStation)
    require(stations.nonEmpty, "no fixed stations")
    val setter = stations.minBy(deg(_))
    val stationPoints = points.subset(nodes(_).isStation)

    // Rules 3 and 4; a candidate without trips has nothing to rank
    val degreePass = cands.filter(deg(_) >= deg(setter))
    val alive = degreePass.filter(k =>
      deg(k) > 0 && !(Haversine.nearest(points.lats(k), points.lons(k), stationPoints)._1 <= minDistM))
    val score = new Array[Long](nodes.size)
    for (k <- alive) score(k) = deg(k)

    // pairwise pruning over the close pairs in id order: scores only fall
    // to 0, so once a pair is checked one of the two is zero, and a second
    // pass would change nothing. Of two equal degrees the higher id goes.
    val close = SpatialGrid.pairs(alive.map(points.lats(_)).toArray, alive.map(points.lons(_)).toArray, minDistM)
    for ((i, j, d) <- close.upperPairs if d < minDistM) {
      val (a, b) = (alive(i), alive(j))
      if (score(a) > 0 && score(b) > 0) score(if (deg(a) < deg(b)) a else b) = 0
    }

    val out = cands.sortBy(k => (-score(k), k))
      .map(k => Candidate(points.ids(k), points.lats(k), points.lons(k), deg(k), score(k), score(k) > 0))
    Result(out, deg(setter), points.ids(setter), degreePass.size, alive.size, alive.count(score(_) == 0))
  }
}

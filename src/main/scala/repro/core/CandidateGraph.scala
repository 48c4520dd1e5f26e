package repro.core

import java.util.Arrays

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster.{HAC, SpatialGrid}
import repro.data.Cleaning.CleanData
import repro.geo.Haversine

/** Candidate-graph construction (paper §IV-A, Table II).
  *
  * Fixed stations are immovable group centroids; every location within
  * `preAssignM` (50 m) of its nearest station joins that station's group
  * and is excluded from clustering. The remaining locations are clustered
  * with complete-linkage HAC at a `hacCutM` (100 m) diameter cut, with
  * cluster centroids forced >= `centroidSepM` (50 m) apart (Rule 2).
  * Each cluster becomes a *candidate station*; trips become directed
  * edges between the nodes their endpoints map to.
  */
object CandidateGraph {

  /** Candidate node ids are cluster ids offset into a disjoint range. */
  val CandidateOffset = 1000000L

  final case class Stats(nNodes: Long, nStationNodes: Long, nCandidateNodes: Long,
                         undirectedEdges: Long, undirectedEdgesNoLoops: Long,
                         directedEdges: Long, directedEdgesNoLoops: Long, nTrips: Long)

  /** A row of the node table. */
  final case class Node(id: Long, lat: Double, lon: Double, isStation: Boolean)

  /** @param nodes       the fixed stations, in id order, then the candidates
    * @param locationIds the cleaned location ids, ascending
    * @param nodeOf      the node position (in `nodes`) of each cleaned
    *                    location, by its position in `locationIds`
    * @param tripTable   the cleaned trips between the nodes, over their ids:
    *                    Table II, the degrees of Algorithm 1 and the
    *                    selected graph read it in plain Scala. Day and hour
    *                    are the cleaned trips', taken in the configured zone
    *                    (default UTC).
    * @param rentals     the cleaned rentals, which [[trips]] relabels, built
    *                    on its first call
    */
  final case class Result(nodes: Seq[Node], locationIds: Array[Long], nodeOf: Array[Int],
                          tripTable: TemporalGraphs.TripTable, rentals: () => DataFrame) {
    require(tripTable.ids.sameElements(nodes.map(_.id)), "the trip table's ids must be the node ids, in order")

    /** rental_id, src_node, dst_node, start_ts: a lazy view. */
    lazy val trips: DataFrame = TemporalGraphs.trips(rentals(), locationIds, nodeOf.map(tripTable.ids))

    /** Table II: the directed pairs' and the T_Null slices' packed keys. */
    def stats: Stats = {
      val n = tripTable.ids.length.toLong
      val directed = TemporalGraphs.pairCounts(tripTable)._1
      val undirected = TemporalGraphs.sliceCounts(tripTable, TemporalGraphs.TNull)._1
      val nStation = nodes.count(_.isStation).toLong
      Stats(
        nNodes = nodes.size.toLong, nStationNodes = nStation,
        nCandidateNodes = nodes.size - nStation,
        undirectedEdges = undirected.length.toLong,
        undirectedEdgesNoLoops = undirected.count(k => k / n != k % n).toLong,
        directedEdges = directed.length.toLong,
        directedEdgesNoLoops = directed.count(k => k / n != k % n).toLong,
        nTrips = tripTable.size.toLong)
    }
  }

  /** Each location's nearest station as location_id, nearest_station,
    * station_dist_m, by [[repro.geo.Haversine.nearest]] on the driver.
    */
  def nearestStation(locations: DataFrame, stations: DataFrame): DataFrame = {
    import locations.sparkSession.implicits._
    val (locs, sts) = (SpatialGrid.collectSorted(locations, "location_id"),
                       SpatialGrid.collectSorted(stations, "station_id"))
    locs.ids.indices.map { k =>
      val (d, s) = Haversine.nearest(locs.lats(k), locs.lons(k), sts)
      (locs.ids(k), s, d)
    }.toDF("location_id", "nearest_station", "station_dist_m")
  }

  /** Build the candidate graph from cleaned data, on the driver: the
    * geometry runs over the cleaned station and location points, in id
    * order, and `tripTable` is the cleaned trips relabelled from location
    * to node positions. Every station id must be below every candidate node
    * id, so the nodes are in ascending id order. Starts no Spark job.
    */
  def build(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
            data: CleanData, preAssignM: Double = 50.0, hacCutM: Double = 100.0,
            centroidSepM: Double = 50.0): Result = {
    val (stations, locs) = (data.stationPoints, data.locationPoints)
    require(stations.size > 0, "the candidate graph needs at least one fixed station")
    val near = Array.tabulate(locs.size)(k => Haversine.nearest(locs.lats(k), locs.lons(k), stations))

    // locations within preAssignM join their station; the rest are clustered
    val pre = near.map(_._1 <= preAssignM)
    val rest = locs.subset(!pre(_))
    val (clusterOf, clusters) = HAC.local(rest, hacCutM, centroidSepM)
    for (c <- clusters.headOption)
      require(stations.ids.last < c.id + CandidateOffset,
        s"station id ${stations.ids.last} is not below candidate node id ${c.id + CandidateOffset} " +
          s"(location ${c.id} + $CandidateOffset)")
    val nodes =
      stations.ids.indices.map(k => Node(stations.ids(k), stations.lats(k), stations.lons(k), isStation = true)) ++
      clusters.map(c => Node(c.id + CandidateOffset, c.lat, c.lon, isStation = false))
    // `rest` holds the clustered locations in location order, as tabulate visits them
    val (nodeIds, clustered) = (nodes.map(_.id).toArray, clusterOf.iterator)
    val nodeOf = Array.tabulate(locs.size)(k =>
      Arrays.binarySearch(nodeIds, if (pre(k)) near(k)._2 else clustered.next() + CandidateOffset))

    Result(nodes, locs.ids, nodeOf, data.tripTable.relabel(nodeOf, nodeIds), () => data.rentals)
  }
}

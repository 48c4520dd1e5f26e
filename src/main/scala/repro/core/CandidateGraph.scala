package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.cluster.HAC
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

  /** @param nodes      node_id, lat, lon, is_station
    * @param assignment location_id, node_id, dist_to_station_m
    * @param trips      rental_id, src_node, dst_node, start_ts
    */
  final case class Result(nodes: DataFrame, assignment: DataFrame, trips: DataFrame) {

    /** (src_node, dst_node) → trips, collected once: Table II, the degrees
      * of Algorithm 1 and the selected graph read it in plain Scala.
      */
    lazy val edgeTrips: Map[(Long, Long), Long] =
      trips.groupBy(col("src_node"), col("dst_node")).count().collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> r.getLong(2)).toMap

    /** The node table, collected once (~1 k nodes at sf=1). */
    lazy val nodeTable: Seq[Node] =
      nodes.select(col("node_id"), col("lat"), col("lon"), col("is_station")).collect()
        .map(r => Node(r.getLong(0), r.getDouble(1), r.getDouble(2), r.getBoolean(3))).toSeq

    /** Table II, counted in plain Scala. */
    def stats: Stats = {
      val undirected = edgeTrips.keys.map { case (s, d) => (math.min(s, d), math.max(s, d)) }.toSet
      val nStation = nodeTable.count(_.isStation).toLong
      Stats(
        nNodes = nodeTable.size.toLong, nStationNodes = nStation,
        nCandidateNodes = nodeTable.size - nStation,
        undirectedEdges = undirected.size.toLong,
        undirectedEdgesNoLoops = undirected.count { case (a, b) => a != b }.toLong,
        directedEdges = edgeTrips.size.toLong,
        directedEdgesNoLoops = edgeTrips.keys.count { case (s, d) => s != d }.toLong,
        nTrips = edgeTrips.values.sum)
    }
  }

  /** Nearest fixed station for every location: location_id, nearest_station,
    * station_dist_m. Uses a cross join (|L|·|S| ≈ 1.3 M at sf=1).
    */
  def nearestStation(locations: DataFrame, stations: DataFrame): DataFrame = {
    val l = locations.select(col("location_id"), col("lat") as "l_lat", col("lon") as "l_lon")
    val s = stations.select(col("station_id"), col("lat") as "s_lat", col("lon") as "s_lon")
    val joined = l.crossJoin(s)
      .withColumn("station_dist_m",
        Haversine.metresCol(col("l_lat"), col("l_lon"), col("s_lat"), col("s_lon")))
    val w = Window.partitionBy(col("location_id"))
      .orderBy(col("station_dist_m").asc, col("station_id").asc)
    joined.withColumn("rn", row_number().over(w))
      .filter(col("rn") === 1)
      .select(col("location_id"), col("station_id") as "nearest_station", col("station_dist_m"))
  }

  /** Build the candidate graph from cleaned data. */
  def build(spark: SparkSession, data: CleanData,
            preAssignM: Double = 50.0, hacCutM: Double = 100.0,
            centroidSepM: Double = 50.0): Result = {
    import spark.implicits._

    val near = nearestStation(data.locations, data.stations).cache()

    val preAssigned = near.filter($"station_dist_m" <= preAssignM)
      .select($"location_id", $"nearest_station" as "node_id", $"station_dist_m")

    val toCluster = data.locations
      .join(near.filter($"station_dist_m" > preAssignM).select($"location_id", $"station_dist_m"),
            "location_id")
      .select($"location_id" as "id", $"lat", $"lon", $"station_dist_m")

    val hac = HAC.cluster(spark, toCluster.select($"id", $"lat", $"lon"),
                          cutM = hacCutM, minCentroidSepM = centroidSepM)

    val clustered = hac.assignment
      .join(toCluster.select($"id", $"station_dist_m"), "id")
      .select($"id" as "location_id",
              ($"cluster_id" + CandidateOffset) as "node_id",
              $"station_dist_m")

    // eager localCheckpoint (not cache): the assignment is evaluated once,
    // and the trip mapping plans from its partitions instead of re-running
    // the nearest-station cross join and window
    val assignment = preAssigned.unionByName(clustered).localCheckpoint(true)

    val stationNodes = data.stations.select(
      $"station_id" as "node_id", $"lat", $"lon", lit(true) as "is_station")
    val candidateNodes = hac.centroids.select(
      ($"cluster_id" + CandidateOffset) as "node_id",
      $"c_lat" as "lat", $"c_lon" as "lon", lit(false) as "is_station")
    val nodes = stationNodes.unionByName(candidateNodes).localCheckpoint(true)

    val srcMap = assignment.select($"location_id" as "rental_location_id", $"node_id" as "src_node")
    val dstMap = assignment.select($"location_id" as "return_location_id", $"node_id" as "dst_node")
    val trips = data.rentals
      .join(srcMap, "rental_location_id")
      .join(dstMap, "return_location_id")
      .select($"rental_id", $"src_node", $"dst_node", $"start_ts")
      .localCheckpoint(true)

    Result(nodes, assignment, trips)
  }
}

package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.geo.Haversine

/** The selected graph (paper §V-B, Table III): pre-existing stations plus
  * the candidates chosen by Algorithm 1. Trips at rejected candidates are
  * redirected to the nearest station of the final set, so the total trip
  * count is invariant.
  */
object SelectedGraph {

  final case class GroupStats(stations: Long, tripsFrom: Long, tripsTo: Long,
                              edgesFrom: Long, edgesTo: Long)

  final case class Stats(preExisting: GroupStats, selected: GroupStats,
                         totalStations: Long, totalTrips: Long, totalEdges: Long)

  /** @param nodes  node_id, lat, lon, is_station (pre-existing), is_new
    * @param trips  rental_id, src_node, dst_node, start_ts (redirected): a lazy
    *               view over the candidate graph's trips
    * @param counts (src_node, dst_node, day, hour) → trips of `trips`: the
    *               selected graph has a few hundred nodes, so every
    *               post-selection table and all three temporal graphs are
    *               plain Scala projections of it
    */
  final case class Result(nodes: DataFrame, trips: DataFrame,
                          counts: Map[(Long, Long, Int, Int), Long]) {

    /** (src_node, dst_node) → trips. */
    lazy val edgeTrips: Map[(Long, Long), Long] = TemporalGraphs.pairCounts(counts)

    /** node_id → is_new (selected by Algorithm 1 rather than pre-existing).
      * `nodes` is a local relation, so collecting it starts no Spark job.
      */
    lazy val isNew: Map[Long, Boolean] =
      nodes.select(col("node_id"), col("is_new")).collect()
        .map(r => r.getLong(0) -> r.getBoolean(1)).toMap

    def stats: Stats = {
      def grp(newFlag: Boolean): GroupStats = {
        val from = edgeTrips.filter { case ((s, _), _) => isNew(s) == newFlag }
        val to = edgeTrips.filter { case ((_, d), _) => isNew(d) == newFlag }
        GroupStats(stations = isNew.count(_._2 == newFlag).toLong,
                   tripsFrom = from.values.sum, tripsTo = to.values.sum,
                   edgesFrom = from.size.toLong, edgesTo = to.size.toLong)
      }
      Stats(grp(newFlag = false), grp(newFlag = true), totalStations = isNew.size.toLong,
            totalTrips = edgeTrips.values.sum, totalEdges = edgeTrips.size.toLong)
    }
  }

  /** Redirect trips at rejected candidates to the nearest final station.
    * Redirection relabels nodes, so `counts` is the candidate graph's
    * counts relabelled and summed on the driver.
    */
  def build(spark: SparkSession, candidate: CandidateGraph.Result,
            selection: StationSelection.Result): Result = {
    import spark.implicits._

    val selectedIds = selection.selected.map(_.nodeId).toSet
    val finals = candidate.nodeTable.filter(n => n.isStation || selectedIds(n.id))
    val finalNodes = finals.map(n => (n.id, n.lat, n.lon, n.isStation, !n.isStation))
      .toDF("node_id", "lat", "lon", "is_station", "is_new")

    // nearest final station for every rejected candidate node (driver-side:
    // ~1k rejected × ~240 stations)
    val finalPoints = finals.map(n => (n.id, n.lat, n.lon))
    val remap: Map[Long, Long] = selection.candidates.filterNot(_.selected)
      .map(r => r.nodeId -> Haversine.nearest(r.lat, r.lon, finalPoints)._2).toMap

    val node = (n: Long) => remap.getOrElse(n, n)
    val counts = candidate.counts.toSeq.groupMapReduce { case ((s, d, day, hour), _) =>
      (node(s), node(d), day, hour)
    }(_._2)(_ + _)

    // a map literal lookup is null for a node that keeps its label
    val lookup = typedLit(remap)
    val trips = candidate.trips.select($"rental_id",
      coalesce(lookup($"src_node"), $"src_node") as "src_node",
      coalesce(lookup($"dst_node"), $"dst_node") as "dst_node",
      $"start_ts")

    Result(finalNodes, trips, counts)
  }
}

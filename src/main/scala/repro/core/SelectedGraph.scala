package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geo.{Haversine, PointTable}

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

  /** @param finals    the pre-existing stations (`isStation`) and the selected candidates
    * @param nodeOf    location_id → final node_id: the candidate `nodeOf`, then the redirection
    * @param tripTable the redirected trips from src_node to dst_node; every
    *                  post-selection table and all three temporal graphs
    *                  are plain Scala projections of it
    * @param rentals   the cleaned rentals, which [[trips]] relabels, built
    *                  on its first call
    */
  final case class Result(finals: Seq[CandidateGraph.Node], nodeOf: Map[Long, Long],
                          tripTable: TemporalGraphs.TripTable, rentals: () => DataFrame) {

    /** (src_node, dst_node) → trips. */
    lazy val edgeTrips: Map[(Long, Long), Long] = TemporalGraphs.pairCounts(tripTable)

    /** node_id → is_new (selected by Algorithm 1 rather than pre-existing). */
    lazy val isNew: Map[Long, Boolean] = finals.map(n => n.id -> !n.isStation).toMap

    /** node_id, lat, lon, is_station, is_new: `finals` as a local relation. */
    lazy val nodes: DataFrame = rentals().sparkSession
      .createDataFrame(finals.map(n => (n.id, n.lat, n.lon, n.isStation, !n.isStation)))
      .toDF("node_id", "lat", "lon", "is_station", "is_new")

    /** rental_id, src_node, dst_node, start_ts (redirected): a lazy view. */
    lazy val trips: DataFrame = TemporalGraphs.trips(rentals(), nodeOf)

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
    * Redirection relabels nodes, so `tripTable` is the candidate graph's
    * table relabelled on the driver.
    */
  def build(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
            candidate: CandidateGraph.Result, selection: StationSelection.Result): Result = {
    val selectedIds = selection.selected.map(_.nodeId).toSet
    val finals = candidate.nodes.filter(n => n.isStation || selectedIds(n.id))

    // nearest final station for every rejected candidate node (driver-side:
    // ~1k rejected × ~240 stations)
    val finalPoints = PointTable(finals.map(_.id).toArray, finals.map(_.lat).toArray, finals.map(_.lon).toArray)
    val remap: Map[Long, Long] = selection.candidates.filterNot(_.selected)
      .map(r => r.nodeId -> Haversine.nearest(r.lat, r.lon, finalPoints)._2).toMap
    val node = (n: Long) => remap.getOrElse(n, n)

    Result(finals, candidate.nodeOf.map { case (l, n) => l -> node(n) },
           candidate.tripTable.relabel(node), candidate.rentals)
  }
}

package repro.core

import java.util.Arrays

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

  /** @param finals      the pre-existing stations (`isStation`) and the
    *                    selected candidates, in id order
    * @param locationIds the cleaned location ids, ascending
    * @param nodeOf      the final node position (in `finals`) of each cleaned
    *                    location, by its position in `locationIds`: the
    *                    candidate `nodeOf`, then the redirection
    * @param tripTable   the redirected trips between the final nodes, over
    *                    their ids; every post-selection table and all three
    *                    temporal graphs are plain Scala projections of it
    * @param rentals     the cleaned rentals, which [[trips]] relabels, built
    *                    on its first call
    */
  final case class Result(finals: Seq[CandidateGraph.Node], locationIds: Array[Long], nodeOf: Array[Int],
                          tripTable: TemporalGraphs.TripTable, rentals: () => DataFrame) {
    require(tripTable.ids.sameElements(finals.map(_.id)), "the trip table's ids must be the final node ids, in order")

    /** node_id, lat, lon, is_station, is_new: `finals` as a local relation. */
    lazy val nodes: DataFrame = rentals().sparkSession
      .createDataFrame(finals.map(n => (n.id, n.lat, n.lon, n.isStation, !n.isStation)))
      .toDF("node_id", "lat", "lon", "is_station", "is_new")

    /** rental_id, src_node, dst_node, start_ts (redirected): a lazy view. */
    lazy val trips: DataFrame = TemporalGraphs.trips(rentals(), locationIds, nodeOf.map(tripTable.ids))

    /** Table III: passes over the trips, and the directed pairs' packed keys. */
    def stats: Stats = {
      val (t, n) = (tripTable, tripTable.ids.length.toLong)
      val isNew = finals.map(!_.isStation).toArray
      val pairs = TemporalGraphs.pairCounts(t)._1
      def grp(newFlag: Boolean): GroupStats =
        GroupStats(stations = isNew.count(_ == newFlag).toLong,
                   tripsFrom = t.from.count(isNew(_) == newFlag).toLong,
                   tripsTo = t.to.count(isNew(_) == newFlag).toLong,
                   edgesFrom = pairs.count(k => isNew((k / n).toInt) == newFlag).toLong,
                   edgesTo = pairs.count(k => isNew((k % n).toInt) == newFlag).toLong)
      Stats(grp(newFlag = false), grp(newFlag = true), totalStations = finals.size.toLong,
            totalTrips = t.size.toLong, totalEdges = pairs.length.toLong)
    }
  }

  /** Redirect trips at rejected candidates to the nearest final station.
    * Redirection relabels nodes, so `tripTable` is the candidate graph's
    * table relabelled on the driver, by one final position per candidate
    * node.
    */
  def build(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
            candidate: CandidateGraph.Result, selection: StationSelection.Result): Result = {
    val selectedIds = selection.selected.map(_.nodeId).toSet
    val kept = (n: CandidateGraph.Node) => n.isStation || selectedIds(n.id)
    val finals = candidate.nodes.filter(kept)

    // a kept node stays itself; a rejected one moves to the nearest final
    // station (driver-side: ~1k rejected × ~240 stations)
    val finalPoints = PointTable(finals.map(_.id).toArray, finals.map(_.lat).toArray, finals.map(_.lon).toArray)
    val remap = candidate.nodes.map { n =>
      Arrays.binarySearch(finalPoints.ids, if (kept(n)) n.id else Haversine.nearest(n.lat, n.lon, finalPoints)._2)
    }.toArray

    Result(finals, candidate.locationIds, candidate.nodeOf.map(remap),
           candidate.tripTable.relabel(remap, finalPoints.ids), candidate.rentals)
  }
}

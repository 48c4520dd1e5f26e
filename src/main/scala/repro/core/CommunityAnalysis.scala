package repro.core

import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** Community summary tables (paper Tables IV, V, VI): per community the
  * number of old (pre-existing) and new (selected) stations, and the
  * trips that stay inside it (within), leave it (out) or enter it (in).
  */
object CommunityAnalysis {

  final case class CommunityRow(communityId: Long, oldStations: Long, newStations: Long,
                                totalStations: Long, within: Long, out: Long, in: Long) {
    def total: Long = within + out + in
  }

  final case class Summary(rows: Seq[CommunityRow], modularity: Double) {
    def nCommunities: Int = rows.size
    /** Fraction of all trips that start and end in the same community. */
    def selfContainment: Double = {
      val within = rows.map(_.within).sum.toDouble
      val all = within + rows.map(_.out).sum
      if (all == 0) 0.0 else within / all
    }
  }

  /** Build the summary from a node->community assignment, in plain Scala
    * from the selected graph's collected node flags and edge trip counts.
    * Every node of `selected` must have a community: a missing one would
    * silently drop its trips.
    *
    * Community ids are renumbered 1..K by descending total station count
    * then ascending min node id, mirroring the paper's table layout.
    */
  def summarize(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
                selected: SelectedGraph.Result, community: Map[Long, Long],
                modularity: Double): Summary = {
    val tripNodes = selected.edgeTrips.keysIterator.flatMap { case (s, d) => Iterator(s, d) }
    for (n <- selected.isNew.keysIterator ++ tripNodes)
      require(community.contains(n), s"node $n of the selected graph has no community")

    val stations = selected.isNew.toSeq.groupBy { case (n, _) => community(n) }
    val within, out, in = mutable.HashMap.empty[Long, Long].withDefaultValue(0L)
    for (((s, d), n) <- selected.edgeTrips) {
      val (cs, cd) = (community(s), community(d))
      if (cs == cd) within(cs) += n else { out(cs) += n; in(cd) += n }
    }

    val rows = stations.toSeq
      .map { case (c, members) =>
        val nNew = members.count(_._2).toLong
        (c, members.size - nNew, nNew, members.size.toLong)
      }
      .sortBy { case (c, _, _, total) => (-total, c) }
      .zipWithIndex.map { case ((c, old, nNew, total), i) =>
        CommunityRow(i + 1L, old, nNew, total, within(c), out(c), in(c))
      }
    Summary(rows, modularity)
  }
}

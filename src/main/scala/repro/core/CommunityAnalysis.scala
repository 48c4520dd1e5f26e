package repro.core

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

  /** Build the summary from a node->community assignment, in plain Scala:
    * one pass over the selected graph's nodes and one over its trips, with
    * the communities numbered densely. Every node of `selected` must have a
    * community: a missing one would silently drop its trips.
    *
    * Community ids are renumbered 1..K by descending total station count
    * then ascending min node id, mirroring the paper's table layout.
    */
  def summarize(@scala.annotation.unused("perfbench/Harness.scala passes it") spark: SparkSession,
                selected: SelectedGraph.Result, community: Map[Long, Long],
                modularity: Double): Summary = {
    val t = selected.tripTable
    for (n <- t.ids) require(community.contains(n), s"node $n of the selected graph has no community")

    // c(k): the community of node position k, as a position in `labels`
    val labels = t.ids.map(community).distinct.sorted
    val c = t.ids.map(n => java.util.Arrays.binarySearch(labels, community(n)))
    val (old, nNew) = (new Array[Long](labels.length), new Array[Long](labels.length))
    for ((node, k) <- selected.finals.zipWithIndex)
      if (node.isStation) old(c(k)) += 1 else nNew(c(k)) += 1
    val within, out, in = new Array[Long](labels.length)
    for (i <- 0 until t.size) {
      val (cs, cd) = (c(t.from(i)), c(t.to(i)))
      if (cs == cd) within(cs) += 1 else { out(cs) += 1; in(cd) += 1 }
    }

    val rows = labels.indices
      .sortBy(k => (-(old(k) + nNew(k)), labels(k)))
      .zipWithIndex.map { case (k, i) =>
        CommunityRow(i + 1L, old(k), nNew(k), old(k) + nNew(k), within(k), out(k), in(k))
      }
    Summary(rows, modularity)
  }
}

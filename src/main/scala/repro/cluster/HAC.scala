package repro.cluster

import java.util.Arrays

import scala.math.Ordering.Double.TotalOrdering

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geo.PointTable

/** Complete-linkage hierarchical agglomerative clustering with a diameter
  * cut (the paper's §IV-A graph-construction step).
  *
  * Under a cut `cutM`, two clusters merge only while their linkage, the
  * largest distance between their members, is at most `cutM`, and a merge
  * only raises linkages. A pair of points further apart than `cutM` can
  * therefore only ever block a merge, so dropping every such pair and
  * reading a missing pair as "never merges" is exact (SparseHC, Nguyen,
  * Zheng & Chen, ICCS 2014). Proximity components are implicit: no pair
  * links two of them. We therefore:
  *
  *   1. build the ≤`cutM` neighbour lists with [[SpatialGrid.pairs]];
  *   2. run exact complete linkage over those lists;
  *   3. optionally enforce the paper's Rule 2 (cluster centroids >= 50 m
  *      apart) by repeatedly merging the closest centroid pair below the
  *      threshold, found in the i < j half of [[SpatialGrid.pairs]] over
  *      the centroids.
  *
  * All of it runs on the driver, in primitive arrays: complete linkage
  * needs every point of a proximity component in one place.
  *
  * Cluster ids are the minimum member point id — stable and deterministic.
  */
object HAC {

  final case class Result(assignment: DataFrame, centroids: DataFrame)

  /** Exact complete-linkage agglomeration with diameter cut over the
    * points 0 until n of `g`, indexed in ascending id order; every pair in
    * `g` is within the cut. Returns, per point, the index of its cluster's
    * least member. `g` is left as it was.
    *
    * Each live cluster keeps its neighbours as its row of a copy of `g`'s
    * neighbour lists: ids and linkages, sorted by cluster, from the row's
    * start until its live end. A merge is one linear pass over the two
    * clusters' rows that writes the neighbours both share, each at the
    * larger linkage, into the kept row in place: they are a subset of that
    * row, so they fit and stay ascending. A neighbour's own entry for the
    * kept cluster is then raised in place, or set to +∞ (no pair) if only
    * the kept cluster had it, and its entries for the dropped cluster are
    * skipped from then on.
    *
    * Merges follow the nearest-neighbour chain (Müllner, arXiv:1109.2378):
    * a stack of clusters, each the nearest live neighbour of the one below
    * it, where nearest means the least (linkage, index). When the top two
    * are each other's nearest they merge and both leave the stack; a
    * cluster with no finite linkage left is final. Among one cluster's
    * pairs, the least (linkage, index) neighbour gives the least pair
    * under the greedy order (least linkage, then the lower cluster's least
    * member, then the other's). Complete linkage is reducible: a merge
    * never brings a cluster closer to a third one. So a reciprocal nearest
    * pair is one the greedy order merges too, and the chain gives the
    * greedy partition, ties included, without a priority queue. Complete
    * linkage is also monotone, so merging until no linkage is left is
    * exactly the dendrogram cut.
    */
  private[cluster] def completeLinkage(g: SpatialGrid.Neighbours): Array[Int] = {
    val n = g.n
    val start = g.offsets
    val end = Arrays.copyOfRange(g.offsets, 1, n + 1)
    val nbr = g.nbr.clone()
    val links = g.metres.clone()

    val parent = Array.tabulate(n)(identity)
    def setLinkage(a: Int, b: Int, d: Double): Unit = links(Arrays.binarySearch(nbr, start(a), end(a), b)) = d
    // the least (linkage, index) live neighbour of live cluster a, -1 if it
    // has none; dead clusters and +∞ entries are no neighbours
    def nearest(a: Int): Int = {
      var best = -1; var bestLink = Double.PositiveInfinity
      var e = start(a)
      while (e < end(a)) {
        // ascending ids: on equal linkages the first stays
        if (links(e) < bestLink && parent(nbr(e)) == nbr(e)) { best = nbr(e); bestLink = links(e) }
        e += 1
      }
      best
    }
    // merge hi into lo: one pass over both sorted rows keeps the live
    // neighbours both share, each at the larger of its two linkages
    def merge(lo: Int, hi: Int): Unit = {
      parent(hi) = lo
      var a = start(lo); var b = start(hi); var m = start(lo)
      while (a < end(lo)) {
        // dead clusters (hi among them) and +∞ entries are no neighbours
        val k = nbr(a)
        if (parent(k) == k && links(a) != Double.PositiveInfinity) {
          while (b < end(hi) && nbr(b) < k) b += 1
          if (b < end(hi) && nbr(b) == k && links(b) != Double.PositiveInfinity) {
            val (da, db) = (links(a), links(b))
            nbr(m) = k; links(m) = math.max(da, db); m += 1
            if (db > da) setLinkage(k, lo, db)
          } else setLinkage(k, lo, Double.PositiveInfinity)
        }
        a += 1
      }
      end(lo) = m
    }

    // the chain grows from each live point in turn until that point is
    // merged away or final
    val chain = new Array[Int](n)
    var top = 0
    var i = 0
    while (i < n) {
      if (top == 0) { chain(0) = i; top = 1 }
      val a = chain(top - 1)
      val b = if (parent(a) == a) nearest(a) else -1
      if (b < 0) { top -= 1; if (top == 0) i += 1 }
      else if (top > 1 && chain(top - 2) == b) { merge(math.min(a, b), math.max(a, b)); top -= 2 }
      else { chain(top) = b; top += 1 }
    }
    // a cluster's parent has a lower index, so one ascending pass finds roots
    for (k <- 0 until n) parent(k) = parent(parent(k))
    parent
  }

  /** A cluster: its id (the least member id), centroid and point count. */
  final case class Cluster(id: Long, lat: Double, lon: Double, nPoints: Long)

  /** Cluster `points` with complete linkage and diameter cut `cutM`; if
    * `minCentroidSepM` > 0, post-merge clusters whose centroids are closer
    * than that (paper Rule 2). Returns each point's cluster id and the
    * clusters in id order.
    */
  def local(points: PointTable, cutM: Double, minCentroidSepM: Double): (Array[Long], Seq[Cluster]) = {
    val PointTable(ids, lats, lons) = points
    val n = ids.length
    val parent = completeLinkage(SpatialGrid.pairs(lats, lons, cutM))

    // centroids, summed in id order
    val (sumLat, sumLon, count) = (new Array[Double](n), new Array[Double](n), new Array[Long](n))
    for (k <- 0 until n) {
      val r = parent(k)
      sumLat(r) += lats(k); sumLon(r) += lons(k); count(r) += 1
    }
    final case class C(root: Int, var lat: Double, var lon: Double, var n: Long)
    val cs = (0 until n).filter(r => parent(r) == r)
      .map(r => C(r, sumLat(r) / count(r), sumLon(r) / count(r), count(r))).toBuffer

    // Rule 2: merge the closest centroid pair below the separation, ties to
    // the first pair in cluster-id order, into the one with the lower id
    def closest = SpatialGrid.pairs(cs.map(_.lat).toArray, cs.map(_.lon).toArray, minCentroidSepM)
      .upperPairs.filter(_._3 < minCentroidSepM).minByOption { case (i, j, d) => (d, i, j) }
    var next = if (minCentroidSepM > 0) closest else None
    while (next.nonEmpty) {
      val (bi, bj, _) = next.get
      val (keep, drop) = (cs(bi), cs(bj))
      val tot = keep.n + drop.n
      keep.lat = (keep.lat * keep.n + drop.lat * drop.n) / tot
      keep.lon = (keep.lon * keep.n + drop.lon * drop.n) / tot
      keep.n = tot
      parent(drop.root) = keep.root
      cs.remove(bj)
      next = closest
    }
    // Rule 2 merged roots into lower roots: one more ascending pass
    for (k <- 0 until n) parent(k) = parent(parent(k))

    (parent.map(ids), cs.toSeq.map(c => Cluster(ids(c.root), c.lat, c.lon, c.n)))
  }

  /** [[local]] over `points` (columns: id, lat, lon) as DataFrames. */
  def cluster(spark: SparkSession, points: DataFrame, cutM: Double,
              minCentroidSepM: Double = 0.0): Result = {
    import spark.implicits._
    val sorted = SpatialGrid.collectSorted(points, "id")
    val (clusterOf, clusters) = local(sorted, cutM, minCentroidSepM)
    Result(
      sorted.ids.zip(clusterOf).toSeq.toDF("id", "cluster_id"),
      clusters.map(c => (c.id, c.lat, c.lon, c.nPoints)).toDF("cluster_id", "c_lat", "c_lon", "n_points"))
  }
}

package repro.cluster

import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering

import org.apache.spark.sql.{DataFrame, SparkSession}

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
  *   1. build the ≤`cutM` neighbour pairs with [[SpatialGrid.pairs]];
  *   2. run exact complete linkage over those pairs;
  *   3. optionally enforce the paper's Rule 2 (cluster centroids >= 50 m
  *      apart) by repeatedly merging the closest centroid pair below the
  *      threshold, found with [[SpatialGrid.pairs]] over the centroids.
  *
  * All of it runs on the driver: complete linkage needs every point of a
  * proximity component in one place.
  *
  * Cluster ids are the minimum member point id — stable and deterministic.
  */
object HAC {

  final case class Result(assignment: DataFrame, centroids: DataFrame)

  /** Exact complete-linkage agglomeration with diameter cut over `n` points
    * indexed in ascending id order, given their pairs (i, j, distance) with
    * i < j; pairs above `cutM` are ignored. Returns, per point, the index
    * of its cluster's least member.
    *
    * Each live cluster keeps a map from neighbouring clusters to their
    * linkage; a queue holds every linkage and skips entries a merge made
    * stale. Merges go least linkage first, ties to the pair whose lower
    * cluster has the least member, then to the other cluster's least
    * member. Complete linkage is monotone, so merging until no linkage is
    * left is exactly the dendrogram cut.
    */
  private[cluster] def completeLinkage(
      n: Int, pairs: Iterable[(Int, Int, Double)], cutM: Double): Array[Int] = {
    val nbr = Array.fill(n)(mutable.HashMap.empty[Int, Double])
    // (linkage, lo, hi) with lo < hi, least first
    val queue = mutable.PriorityQueue.empty[(Double, Int, Int)](Ordering[(Double, Int, Int)].reverse)
    for ((i, j, d) <- pairs if d <= cutM) {
      nbr(i)(j) = d; nbr(j)(i) = d
      queue.enqueue((d, i, j))
    }

    val parent = Array.tabulate(n)(identity)
    while (queue.nonEmpty) {
      val (d, lo, hi) = queue.dequeue()
      if (parent(lo) == lo && parent(hi) == hi && nbr(lo).get(hi).contains(d)) {
        // merge hi into lo, keeping only the neighbours both share, each at
        // the larger of its two linkages
        val (a, b) = (nbr(lo), nbr(hi))
        parent(hi) = lo; nbr(hi) = null
        a.remove(hi); b.remove(lo)
        for (k <- b.keysIterator) nbr(k).remove(hi)
        val merged = mutable.HashMap.empty[Int, Double]
        for ((k, da) <- a) b.get(k) match {
          case Some(db) =>
            merged(k) = math.max(da, db)
            if (db > da) {
              nbr(k)(lo) = db
              queue.enqueue((db, math.min(lo, k), math.max(lo, k)))
            }
          case None => nbr(k).remove(lo)
        }
        nbr(lo) = merged
      }
    }
    // a cluster's parent has a lower index, so one ascending pass finds roots
    for (k <- 0 until n) parent(k) = parent(parent(k))
    parent
  }

  /** A cluster: its id (the least member id), centroid and point count. */
  final case class Cluster(id: Long, lat: Double, lon: Double, nPoints: Long)

  /** Cluster the points (ids(k), lats(k), lons(k)), ids strictly ascending,
    * with complete linkage and diameter cut `cutM`; if `minCentroidSepM` > 0,
    * post-merge clusters whose centroids are closer than that (paper Rule 2).
    * Returns each point's cluster id and the clusters in id order.
    */
  def local(ids: Array[Long], lats: Array[Double], lons: Array[Double], cutM: Double,
            minCentroidSepM: Double): (Array[Long], Seq[Cluster]) = {
    require(ids.indices.drop(1).forall(k => ids(k - 1) < ids(k)), "point ids must be strictly ascending")
    val n = ids.length
    val parent = completeLinkage(n, SpatialGrid.pairs(lats, lons, cutM), cutM)

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
      .filter(_._3 < minCentroidSepM).minByOption { case (i, j, d) => (d, i, j) }
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
    val (ids, lats, lons) = SpatialGrid.collectSorted(points, "id").unzip3
    val (clusterOf, clusters) = local(ids, lats, lons, cutM, minCentroidSepM)
    Result(
      ids.zip(clusterOf).toSeq.toDF("id", "cluster_id"),
      clusters.map(c => (c.id, c.lat, c.lon, c.nPoints)).toDF("cluster_id", "c_lat", "c_lon", "n_points"))
  }
}

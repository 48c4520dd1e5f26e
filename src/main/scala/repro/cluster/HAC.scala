package repro.cluster

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.geo.Haversine

/** Complete-linkage hierarchical agglomerative clustering with a diameter
  * cut (the paper's §IV-A graph-construction step).
  *
  * Exactness at scale: under complete linkage with cut `cutM`, no cluster
  * may contain two points further than `cutM` apart, so clusters can never
  * span two connected components of the "within cutM" proximity graph.
  * We therefore:
  *
  *   1. build ≤`cutM` neighbour pairs with [[SpatialGrid]] (Spark SQL);
  *   2. partition points into proximity components with GraphX
  *      connected components (message passing);
  *   3. run *exact* complete-linkage HAC independently inside each
  *      component (`flatMapGroups`, executor-side, O(k²) per component);
  *   4. optionally enforce the paper's Rule 2 (cluster centroids >= 50 m
  *      apart) by iteratively merging the closest centroid pair below the
  *      threshold (driver-side; cluster count is ~1k).
  *
  * Cluster ids are the minimum member point id — stable and deterministic.
  */
object HAC {

  /** Assignment of one point to its cluster. */
  final case class Assignment(id: Long, cluster_id: Long)

  /** One cluster centroid. */
  final case class Centroid(cluster_id: Long, c_lat: Double, c_lon: Double, n_points: Long)

  final case class Result(assignment: DataFrame, centroids: DataFrame)

  /** Exact complete-linkage agglomeration with diameter cut, on one
    * component. Input arrays are parallel (ids, lats, lons); returns the
    * cluster label (index into [0, nClusters)) per point.
    *
    * Classic nearest-neighbour agglomeration over a packed distance
    * matrix; complete linkage is monotone, so greedily merging the global
    * minimum until it exceeds `cutM` is exactly the dendrogram cut.
    */
  private[cluster] def localCompleteLinkage(
      ids: Array[Long], lats: Array[Double], lons: Array[Double], cutM: Double): Array[Int] = {
    val n = ids.length
    require(n <= 30000, s"HAC component too large: $n points")
    if (n == 1) return Array(0)

    // packed upper-triangular complete-linkage distance matrix
    val d = new Array[Double](n * (n - 1) / 2)
    @inline def ix(i: Int, j: Int): Int = {
      val (a, b) = if (i < j) (i, j) else (j, i)
      a * n - a * (a + 1) / 2 + (b - a - 1)
    }
    var i = 0
    while (i < n) {
      var j = i + 1
      while (j < n) {
        d(ix(i, j)) = Haversine.metres(lats(i), lons(i), lats(j), lons(j))
        j += 1
      }
      i += 1
    }

    val active = Array.fill(n)(true)
    val parent = Array.tabulate(n)(identity) // representative merge target
    val nn = new Array[Int](n)
    val nnd = new Array[Double](n)

    def rescan(k: Int): Unit = {
      var best = -1; var bestD = Double.MaxValue
      var j = 0
      while (j < n) {
        if (j != k && active(j)) {
          val dd = d(ix(k, j))
          if (dd < bestD || (dd == bestD && (best == -1 || j < best))) { bestD = dd; best = j }
        }
        j += 1
      }
      nn(k) = best; nnd(k) = bestD
    }
    i = 0
    while (i < n) { rescan(i); i += 1 }

    var nActive = n
    var continue = true
    while (continue && nActive > 1) {
      var a = -1; var bestD = Double.MaxValue
      var k = 0
      while (k < n) {
        if (active(k) && (nnd(k) < bestD || (nnd(k) == bestD && (a == -1 || k < a)))) {
          bestD = nnd(k); a = k
        }
        k += 1
      }
      if (bestD > cutM) continue = false
      else {
        val b = nn(a)
        val (lo, hi) = if (a < b) (a, b) else (b, a)
        // merge hi into lo: complete linkage takes the max distance
        var j = 0
        while (j < n) {
          if (active(j) && j != lo && j != hi)
            d(ix(lo, j)) = math.max(d(ix(lo, j)), d(ix(hi, j)))
          j += 1
        }
        active(hi) = false; parent(hi) = lo; nActive -= 1
        if (nActive > 1) {
          rescan(lo)
          // distances to lo only grew and hi vanished: refresh anyone
          // whose cached nearest neighbour was lo or hi
          j = 0
          while (j < n) {
            if (active(j) && j != lo && (nn(j) == lo || nn(j) == hi)) rescan(j)
            j += 1
          }
        }
      }
    }

    def root(k: Int): Int = { var r = k; while (parent(r) != r) r = parent(r); r }
    val labelOf = scala.collection.mutable.HashMap.empty[Int, Int]
    Array.tabulate(n) { k => labelOf.getOrElseUpdate(root(k), labelOf.size) }
  }

  /** Cluster `points` (columns: id, lat, lon) with complete linkage and
    * diameter cut `cutM`; if `minCentroidSepM` > 0, post-merge clusters
    * whose centroids are closer than that (paper Rule 2).
    */
  def cluster(spark: SparkSession, points: DataFrame, cutM: Double,
              minCentroidSepM: Double = 0.0): Result = {
    import spark.implicits._
    val pts = points.select($"id".cast("long"), $"lat".cast("double"), $"lon".cast("double")).cache()

    val pairs = SpatialGrid.neighbourPairs(spark, pts, cutM)

    // GraphX connected components over the proximity graph; isolated
    // points keep their own id as component.
    val vertices = pts.select($"id").as[Long].rdd.map(id => (id, ()))
    val edges = pairs.select($"id_a", $"id_b").as[(Long, Long)].rdd
      .map { case (a, b) => Edge(a, b, ()) }
    val comp = Graph(vertices, edges).connectedComponents()
      .vertices.map { case (id, c) => (id, c) }
      .toDF("id", "comp")

    val withComp = pts.join(comp, "id")

    val assigned = withComp
      .select($"comp", $"id", $"lat", $"lon")
      .as[(Long, Long, Double, Double)]
      .groupByKey(_._1)
      .flatMapGroups { (comp, it) =>
        val members = it.toArray.sortBy(_._2) // deterministic order by id
        val labels = localCompleteLinkage(
          members.map(_._2), members.map(_._3), members.map(_._4), cutM)
        members.indices.map(k => (members(k)._2, comp, labels(k)))
      }
      .toDF("id", "comp", "label")
      .withColumn("cluster_id", min($"id").over(Window.partitionBy($"comp", $"label")))
      .select($"id", $"cluster_id")
      .localCheckpoint(true) // truncate GraphX/flatMapGroups lineage

    val base = assigned.join(pts, "id")
      .groupBy($"cluster_id")
      .agg(avg($"lat") as "c_lat", avg($"lon") as "c_lon", count(lit(1)) as "n_points")

    if (minCentroidSepM <= 0) {
      Result(assigned, base.select($"cluster_id", $"c_lat", $"c_lon", $"n_points"))
    } else {
      // driver-side proximity merge: cluster count is ~1k, so O(k²) scans
      // per merge are cheap; merge the closest violating pair first.
      final case class C(var cid: Long, var lat: Double, var lon: Double, var n: Long)
      val cs = base.select($"cluster_id", $"c_lat", $"c_lon", $"n_points")
        .as[(Long, Double, Double, Long)].collect()
        .sortBy(_._1).map(t => C(t._1, t._2, t._3, t._4))
        .toBuffer
      val remap = scala.collection.mutable.HashMap.empty[Long, Long]
      var done = false
      while (!done) {
        var bi = -1; var bj = -1; var bd = Double.MaxValue
        var i = 0
        while (i < cs.size) {
          var j = i + 1
          while (j < cs.size) {
            val dd = Haversine.metres(cs(i).lat, cs(i).lon, cs(j).lat, cs(j).lon)
            if (dd < minCentroidSepM && dd < bd) { bd = dd; bi = i; bj = j }
            j += 1
          }
          i += 1
        }
        if (bi < 0) done = true
        else {
          val (keep, drop) = (cs(bi), cs(bj))
          val tot = keep.n + drop.n
          keep.lat = (keep.lat * keep.n + drop.lat * drop.n) / tot
          keep.lon = (keep.lon * keep.n + drop.lon * drop.n) / tot
          val newCid = math.min(keep.cid, drop.cid)
          remap(drop.cid) = newCid
          remap(keep.cid) = newCid
          // re-route earlier remaps that pointed at either member, in place
          remap.mapValuesInPlace((_, v) => if (v == keep.cid || v == drop.cid) newCid else v)
          keep.cid = newCid; keep.n = tot
          cs.remove(bj)
        }
      }
      val remapDf = remap.toSeq.toDF("cluster_id", "new_cluster_id")
      val reassigned = assigned.join(remapDf, Seq("cluster_id"), "left")
        .select($"id", coalesce($"new_cluster_id", $"cluster_id") as "cluster_id")
      val cents = cs.toSeq.map(c => (c.cid, c.lat, c.lon, c.n))
        .toDF("cluster_id", "c_lat", "c_lon", "n_points")
      Result(reassigned, cents)
    }
  }
}

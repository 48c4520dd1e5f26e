package repro.cluster

import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering

import repro.SparkSpec
import repro.geo.Haversine

/** Tests for complete-linkage HAC with diameter cut. */
class HACSpec extends SparkSpec {

  private val mLat = Haversine.MetresPerDegLat
  private def mLon(lat: Double) = Haversine.metresPerDegLon(lat)

  /** Place a point `dxM` metres east and `dyM` north of a base coord. */
  private def at(baseLat: Double, baseLon: Double, dxM: Double, dyM: Double): (Double, Double) =
    (baseLat + dyM / mLat, baseLon + dxM / mLon(baseLat))

  // ---- completeLinkage ----

  /** Neighbour lists of `n` points holding the pairs (i, j, d), i < j. */
  private def neighbours(n: Int, pairs: Seq[(Int, Int, Double)]): SpatialGrid.Neighbours = {
    val entries = (pairs ++ pairs.map { case (i, j, d) => (j, i, d) }).sortBy(e => (e._1, e._2))
    val offsets = Array.tabulate(n + 1)(r => entries.count(_._1 < r))
    SpatialGrid.Neighbours(offsets, entries.map(_._2).toArray, entries.map(_._3).toArray)
  }

  /** Driver-side linkage over the <= `cut` pairs, found by brute force. */
  private def local(pts: Seq[(Long, Double, Double)], cut: Double): Map[Long, Int] = {
    val arr = pts.sortBy(_._1).toArray
    val pairs = for {
      i <- arr.indices; j <- i + 1 until arr.length
      d = Haversine.metres(arr(i)._2, arr(i)._3, arr(j)._2, arr(j)._3) if d <= cut
    } yield (i, j, d)
    val labels = HAC.completeLinkage(neighbours(arr.length, pairs))
    arr.map(_._1).zip(labels).toMap
  }

  /** Complete linkage over boxed pairs, with one hash map per cluster and a
    * tuple priority queue: the reference the array linkage must match on
    * inputs too large for the naive check.
    */
  private def boxedCompleteLinkage(
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

  /** Both linkages over the grid pairs of `pts` at a 100 m cut, points in
    * id order: (the linkage's parents, the reference's parents). The
    * reference reads the grid pairs after the linkage, which must leave
    * them as they were.
    */
  private def bothLinkages(pts: Seq[(Long, Double, Double)]): (Seq[Int], Seq[Int]) = {
    val (_, lats, lons) = pts.sortBy(_._1).toArray.unzip3
    val g = SpatialGrid.pairs(lats, lons, 100.0)
    val (nbr, metres) = (g.nbr.clone(), g.metres.clone())
    val linkage = HAC.completeLinkage(g).toSeq
    assert(g.nbr.sameElements(nbr) && g.metres.sameElements(metres), "completeLinkage changed the grid pairs")
    (linkage, boxedCompleteLinkage(pts.size, g.upperPairs.toSeq, 100.0).toSeq)
  }

  test("single point forms one cluster") {
    assert(local(Seq((1L, 53.33, -6.26)), 100.0).values.toSet.size === 1)
  }

  test("two points within cut merge; beyond cut stay apart") {
    val (la2, lo2) = at(53.33, -6.26, 60, 0)
    val near = local(Seq((1L, 53.33, -6.26), (2L, la2, lo2)), 100.0)
    assert(near(1L) === near(2L))
    val (la3, lo3) = at(53.33, -6.26, 150, 0)
    val far = local(Seq((1L, 53.33, -6.26), (2L, la3, lo3)), 100.0)
    assert(far(1L) !== far(2L))
  }

  test("complete linkage: chain of 3 points 60 m apart does not fully merge at 100 m") {
    // complete linkage distance between {A,B} and {C} is d(A,C)=120 > 100
    val a = (1L, 53.33, -6.26)
    val (bLat, bLon) = at(53.33, -6.26, 60, 0)
    val (cLat, cLon) = at(53.33, -6.26, 120, 0)
    val res = local(Seq(a, (2L, bLat, bLon), (3L, cLat, cLon)), 100.0)
    assert(res.values.toSet.size === 2, s"got $res")
    // B merges with the closer side first (ties broken deterministically)
    assert(res(1L) === res(2L) || res(2L) === res(3L))
  }

  test("cluster diameter never exceeds the cut (random instances)") {
    val rnd = new scala.util.Random(12)
    (1 to 10).foreach { trial =>
      val pts = (0 until 80).map { i =>
        val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 600, rnd.nextDouble() * 600)
        (i.toLong, la, lo)
      }
      val res = local(pts, 100.0)
      val byCluster = pts.groupBy(p => res(p._1))
      byCluster.values.foreach { members =>
        for (a <- members; b <- members if a._1 < b._1) {
          val d = Haversine.metres(a._2, a._3, b._2, b._3)
          assert(d <= 100.0 + 1e-6, s"trial $trial: diameter violated: $d")
        }
      }
    }
  }

  test("tight blob always fully merges") {
    val rnd = new scala.util.Random(4)
    val pts = (0 until 40).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 30, rnd.nextDouble() * 30)
      (i.toLong, la, lo)
    }
    assert(local(pts, 100.0).values.toSet.size === 1)
  }

  test("matches naive exact HAC on small random instances") {
    // naive: repeatedly merge the closest pair of clusters under complete
    // linkage until min distance > cut; ties go to the pair whose lower
    // cluster has the least member id, then to the other's least member id
    def naive(pts: Seq[(Long, Double, Double)], cut: Double): Set[Set[Long]] = {
      val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
      def dist(x: Long, y: Long): Double = {
        val ((la1, lo1), (la2, lo2)) = (coord(x min y), coord(x max y))
        Haversine.metres(la1, lo1, la2, lo2)
      }
      def cl(a: Set[Long], b: Set[Long]): Double = (for (x <- a; y <- b) yield dist(x, y)).max
      @annotation.tailrec
      def mergeAll(clusters: List[Set[Long]]): List[Set[Long]] =
        if (clusters.size <= 1) clusters
        else {
          val pairs = for (i <- clusters.indices; j <- i + 1 until clusters.size) yield {
            val (lo, hi) = (clusters(i).min min clusters(j).min, clusters(i).min max clusters(j).min)
            (i, j, cl(clusters(i), clusters(j)), lo, hi)
          }
          val (i, j, d, _, _) = pairs.minBy(t => (t._3, t._4, t._5))
          if (d > cut) clusters
          else {
            val merged = clusters(i) ++ clusters(j)
            mergeAll(merged :: clusters.zipWithIndex
              .filter { case (_, k) => k != i && k != j }.map(_._1))
          }
        }
      mergeAll(pts.map(p => Set(p._1)).toList).toSet
    }
    def check(what: String, pts: Seq[(Long, Double, Double)]): Unit = {
      val mine = local(pts, 100.0)
      val mineSets = pts.groupBy(p => mine(p._1)).values.map(_.map(_._1).toSet).toSet
      assert(mineSets === naive(pts, 100.0), s"$what mismatch")
    }
    val rnd = new scala.util.Random(33)
    (1 to 8).foreach { trial =>
      val pts = (0 until 25).map { i =>
        val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 400, rnd.nextDouble() * 400)
        (i.toLong, la, lo)
      }
      check(s"trial $trial", pts)
    }
    // duplicated coordinates: many exact ties, at distance 0 and between
    // the same two sites
    (1 to 4).foreach { trial =>
      val sites = IndexedSeq.fill(8)(at(53.33, -6.26, rnd.nextDouble() * 200, rnd.nextDouble() * 200))
      val pts = (0 until 25).map { i => val (la, lo) = sites(rnd.nextInt(sites.size)); (i.toLong, la, lo) }
      check(s"duplicates trial $trial", pts)
    }
    // a 6 x 6 lattice on dyadic degrees (about 27 m by 32 m), so equal
    // offsets give bitwise-equal distances; ids row by row, then shuffled
    val lattice = for (r <- 0 until 6; c <- 0 until 6) yield (53.25 + r / 4096.0, -6.25 + c / 2048.0)
    check("lattice", lattice.zipWithIndex.map { case ((la, lo), i) => (i.toLong, la, lo) })
    val shuffledIds = rnd.shuffle(lattice.indices.map(_.toLong))
    check("lattice, shuffled ids", lattice.zip(shuffledIds).map { case ((la, lo), i) => (i, la, lo) })
    // a line with gaps 95, 90, ..., 5 m: every point's nearest neighbour is
    // the next one, so a nearest-neighbour chain walks the whole line
    val line = (95 to 5 by -5).scanLeft(0.0)(_ + _).map(x => at(53.33, -6.26, x, 0))
    check("shrinking gaps", line.zipWithIndex.map { case ((la, lo), i) => (i.toLong, la, lo) })
    check("no points", Seq.empty)
  }

  test("matches the boxed linkage on dense percolating clumped fields") {
    // 400 clumps of 5 points (sigma 18 m, clamped to 3 sigma) uniform over a
    // 1,771 m square: the density of the 5,000-point benchmark field, at
    // which the 100 m proximity graph percolates
    val side = 2800.0 * math.sqrt(0.4)
    for (seed <- 7 to 10) {
      val rnd = new scala.util.Random(seed)
      val pts = (0 until 400).flatMap { c =>
        val (cx, cy) = ((rnd.nextDouble() - 0.5) * side, (rnd.nextDouble() - 0.5) * side)
        def jitter = math.max(-54.0, math.min(54.0, rnd.nextGaussian() * 18.0))
        (0 until 5).map { k => val (la, lo) = at(53.3498, -6.2603, cx + jitter, cy + jitter); ((5 * c + k).toLong, la, lo) }
      }
      val (mine, reference) = bothLinkages(pts)
      assert(mine.distinct.size < pts.size / 2, s"seed $seed: too few merges to compare")
      assert(mine === reference, s"seed $seed")
    }
  }

  test("matches the boxed linkage on a 30 x 30 dyadic lattice, ids in row order and shuffled") {
    // about 27 m by 32 m spacing on dyadic degrees: equal offsets give
    // bitwise-equal distances, so most linkages tie
    val lattice = for (r <- 0 until 30; c <- 0 until 30) yield (53.25 + r / 4096.0, -6.25 + c / 2048.0)
    val rowOrder = lattice.zipWithIndex.map { case ((la, lo), i) => (i.toLong, la, lo) }
    val shuffledIds = new scala.util.Random(5).shuffle(lattice.indices.map(_.toLong))
    val shuffled = lattice.zip(shuffledIds).map { case ((la, lo), i) => (i, la, lo) }
    for ((what, pts) <- Seq("row order" -> rowOrder, "shuffled" -> shuffled)) {
      val (mine, reference) = bothLinkages(pts)
      assert(mine === reference, what)
    }
  }

  test("matches the boxed linkage on a field with duplicated coordinates") {
    // 1,500 points on 300 sites over 1 km: ties at distance 0 and between
    // the same two sites
    val rnd = new scala.util.Random(19)
    val sites = IndexedSeq.fill(300)(at(53.33, -6.26, rnd.nextDouble() * 1000, rnd.nextDouble() * 1000))
    val pts = (0 until 1500).map { i => val (la, lo) = sites(rnd.nextInt(sites.size)); (i.toLong, la, lo) }
    val (mine, reference) = bothLinkages(pts)
    assert(mine === reference)
  }

  // ---- distributed cluster() ----

  private def runCluster(pts: Seq[(Long, Double, Double)], cut: Double, sep: Double = 0.0) = {
    import spark.implicits._
    HAC.cluster(spark, pts.toDF("id", "lat", "lon"), cut, sep)
  }

  test("cluster(): assignment covers every point exactly once") {
    import spark.implicits._
    val rnd = new scala.util.Random(8)
    val pts = (0 until 300).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 2000, rnd.nextDouble() * 2000)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assigned = res.assignment.select("id").as[Long].collect().sorted
    assert(assigned.toSeq === pts.map(_._1).sorted.toSeq)
  }

  test("cluster(): cluster ids are min member ids; centroids are member means") {
    import spark.implicits._
    val rnd = new scala.util.Random(21)
    val pts = (0 until 120).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 1000, rnd.nextDouble() * 1000)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    assign.groupBy(_._2).foreach { case (cid, members) =>
      assert(cid === members.keys.min)
    }
    val cents = res.centroids
      .select("cluster_id", "c_lat", "c_lon").as[(Long, Double, Double)].collect()
      .map(t => t._1 -> (t._2, t._3)).toMap
    val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
    assign.groupBy(_._2).foreach { case (cid, members) =>
      val (cla, clo) = cents(cid)
      val mlat = members.keys.map(coord(_)._1).sum / members.size
      val mlon = members.keys.map(coord(_)._2).sum / members.size
      assert(math.abs(cla - mlat) < 1e-9 && math.abs(clo - mlon) < 1e-9)
    }
  }

  test("cluster(): diameter bound holds end-to-end") {
    val rnd = new scala.util.Random(14)
    import spark.implicits._
    val pts = (0 until 250).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 1500, rnd.nextDouble() * 1500)
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    val coord = pts.map(p => p._1 -> (p._2, p._3)).toMap
    assign.groupBy(_._2).values.foreach { members =>
      val ids = members.keys.toSeq
      for (a <- ids; b <- ids if a < b) {
        val d = Haversine.metres(coord(a)._1, coord(a)._2, coord(b)._1, coord(b)._2)
        assert(d <= 100.0 + 1e-6)
      }
    }
  }

  test("cluster(): two separated blobs produce two clusters, matching local HAC") {
    val rnd = new scala.util.Random(2)
    val blob1 = (0 until 20).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 40, rnd.nextDouble() * 40)
      (i.toLong, la, lo)
    }
    val blob2 = (0 until 20).map { i =>
      val (la, lo) = at(53.33, -6.26, 500 + rnd.nextDouble() * 40, rnd.nextDouble() * 40)
      (100L + i, la, lo)
    }
    import spark.implicits._
    val res = runCluster(blob1 ++ blob2, 100.0)
    val assign = res.assignment.as[(Long, Long)].collect().toMap
    assert(assign.values.toSet.size === 2)
    assert(blob1.map(p => assign(p._1)).toSet.size === 1)
    assert(blob2.map(p => assign(p._1)).toSet.size === 1)
  }

  test("cluster(): centroid proximity merge enforces minimum separation") {
    import spark.implicits._
    // two tight blobs ~60 m apart: HAC at cut=50 keeps them separate
    // (diameter would exceed), but 80 m centroid separation merges them
    val blob1 = (0 until 5).map { i => val (la, lo) = at(53.33, -6.26, i * 2, 0); (i.toLong, la, lo) }
    val blob2 = (0 until 5).map { i => val (la, lo) = at(53.33, -6.26, 60 + i * 2, 0); (10L + i, la, lo) }
    val noMerge = runCluster(blob1 ++ blob2, 50.0, 0.0)
    assert(noMerge.assignment.as[(Long, Long)].collect().toMap.values.toSet.size === 2)
    val merged = runCluster(blob1 ++ blob2, 50.0, 80.0)
    assert(merged.assignment.as[(Long, Long)].collect().toMap.values.toSet.size === 1)
    // surviving centroids are pairwise >= 80 m apart
    val cents = merged.centroids.select("c_lat", "c_lon").as[(Double, Double)].collect()
    for (a <- cents; b <- cents if a != b)
      assert(Haversine.metres(a._1, a._2, b._1, b._2) >= 80.0)
  }

  test("cluster(): Rule 2 merges the closest pair first, ties to the first pair in id order") {
    import spark.implicits._
    // dyadic longitudes 1/4096 degree (about 16 m) apart: both neighbour
    // distances are bitwise equal and the outer pair is about 32 m apart
    val pts = (0 until 3).map(k => (k.toLong, 53.25, -6.25 + k / 4096.0))
    val (a, b, c) = (pts(0), pts(1), pts(2))
    assert(Haversine.metres(a._2, a._3, b._2, b._3) == Haversine.metres(b._2, b._3, c._2, c._3))
    // a 1 m cut leaves three singletons; merging {0, 1} moves its centroid
    // about 24 m from point 2, so no second merge follows
    val res = runCluster(pts, 1.0, 20.0)
    assert(res.assignment.as[(Long, Long)].collect().toMap === Map(0L -> 0L, 1L -> 0L, 2L -> 2L))
  }

  test("cluster(): merged centroid is the point-count weighted mean") {
    import spark.implicits._
    val blob1 = (0 until 8).map { i => val (la, lo) = at(53.33, -6.26, i % 3, (i / 3).toDouble); (i.toLong, la, lo) }
    val blob2 = (0 until 2).map { i => val (la, lo) = at(53.33, -6.26, 60 + i, 0); (20L + i, la, lo) }
    val merged = runCluster(blob1 ++ blob2, 50.0, 80.0)
    val cents = merged.centroids.select("c_lat", "c_lon", "n_points")
      .as[(Double, Double, Long)].collect()
    assert(cents.length === 1)
    assert(cents.head._3 === 10L)
    val all = blob1 ++ blob2
    val mlat = all.map(_._2).sum / all.size
    val mlon = all.map(_._3).sum / all.size
    assert(math.abs(cents.head._1 - mlat) < 1e-9)
    assert(math.abs(cents.head._2 - mlon) < 1e-9)
  }

  test("cluster(): Rule 2 re-routes every earlier merge (assignment ids = centroid ids)") {
    import spark.implicits._
    // a 1 m cut leaves every point its own cluster, so the 50 m Rule 2
    // merge does all the work; on seed 51 the remap table grows while
    // earlier merges are re-routed, which updating it mid-iteration misses
    val rnd = new scala.util.Random(51)
    val pts = (0 until 60).map { i =>
      val la = 53.35 + rnd.nextDouble() * 0.003
      val lo = -6.26 + rnd.nextDouble() * 0.005
      (i.toLong, la, lo)
    }
    val res = runCluster(pts, 1.0, 50.0)
    val members = res.assignment.as[(Long, Long)].collect()
      .groupBy(_._2).map { case (cid, ms) => cid -> ms.length.toLong }
    val cents = res.centroids.select("cluster_id", "n_points").as[(Long, Long)].collect().toMap
    assert(members.keySet === cents.keySet)
    assert(members === cents)
  }

  test("cluster(): deterministic across runs") {
    import spark.implicits._
    val rnd = new scala.util.Random(77)
    val pts = (0 until 150).map { i =>
      val (la, lo) = at(53.33, -6.26, rnd.nextDouble() * 800, rnd.nextDouble() * 800)
      (i.toLong, la, lo)
    }
    def collected(r: HAC.Result) = (
      r.assignment.as[(Long, Long)].collect().toMap,
      r.centroids.select("cluster_id", "c_lat", "c_lon", "n_points")
        .as[(Long, Double, Double, Long)].collect().sortBy(_._1).toSeq)
    val a = collected(runCluster(pts, 100.0, 50.0))
    val b = collected(runCluster(pts, 100.0, 50.0))
    assert(a === b)
    // partition count and row order must not change the result
    val repartitioned = rnd.shuffle(pts).toDF("id", "lat", "lon").repartition(5)
    assert(collected(HAC.cluster(spark, repartitioned, 100.0, 50.0)) === a)
  }

  test("cluster(): a 30,001-point chain clusters without a size guard") {
    import spark.implicits._
    // one proximity component: neighbours 60 m apart along a meridian
    val pts = (0 to 30000).map { i => val (la, lo) = at(53.33, -6.26, 0, i * 60.0); (i.toLong, la, lo) }
    val assign = runCluster(pts, 100.0).assignment.as[(Long, Long)].collect()
    assert(assign.map(_._1).sorted.toSeq === pts.map(_._1))
    val clusterOf = assign.toMap
    val members = assign.groupBy(_._2).map { case (c, ms) => c -> ms.map(_._1).toSeq }
    def linkage(a: Seq[Long], b: Seq[Long]): Double =
      (for (x <- a; y <- b) yield
        Haversine.metres(pts(x.toInt)._2, pts(x.toInt)._3, pts(y.toInt)._2, pts(y.toInt)._3)).max
    members.values.foreach(ms => assert(linkage(ms, ms) <= 100.0, s"diameter of $ms"))
    for (k <- 0 until 30000 if clusterOf(k.toLong) != clusterOf(k + 1L)) {
      val (a, b) = (members(clusterOf(k.toLong)), members(clusterOf(k + 1L)))
      assert(linkage(a, b) > 100.0, s"adjacent clusters $a and $b could merge")
    }
  }
}

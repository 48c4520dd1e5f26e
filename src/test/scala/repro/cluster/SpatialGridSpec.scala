package repro.cluster

import repro.SparkSpec
import repro.geo.Haversine

/** Grid blocking must return exactly the brute-force neighbour pairs. */
class SpatialGridSpec extends SparkSpec {

  private def randomPoints(n: Int, seed: Long): Seq[(Long, Double, Double)] = {
    val rnd = new scala.util.Random(seed)
    (0 until n).map { i =>
      (i.toLong, 53.33 + (rnd.nextDouble() - 0.5) * 0.01, -6.26 + (rnd.nextDouble() - 0.5) * 0.015)
    }
  }

  private def brute(pts: Seq[(Long, Double, Double)], t: Double): Set[(Long, Long)] =
    (for {
      a <- pts; b <- pts if a._1 < b._1
      if Haversine.metres(a._2, a._3, b._2, b._3) <= t
    } yield (a._1, b._1)).toSet

  private def grid(pts: Seq[(Long, Double, Double)], t: Double): Set[(Long, Long)] = {
    import spark.implicits._
    SpatialGrid.neighbourPairs(spark, pts.toDF("id", "lat", "lon"), t)
      .select("id_a", "id_b").as[(Long, Long)].collect().toSet
  }

  test("matches brute force at 100 m on 200 clustered points") {
    val pts = randomPoints(200, 1)
    assert(grid(pts, 100.0) === brute(pts, 100.0))
  }

  test("matches brute force at 50 m") {
    val pts = randomPoints(150, 2)
    assert(grid(pts, 50.0) === brute(pts, 50.0))
  }

  test("matches brute force at 250 m") {
    val pts = randomPoints(120, 3)
    assert(grid(pts, 250.0) === brute(pts, 250.0))
  }

  test("matches brute force at random latitudes in 0-70 degrees") {
    // 100 points in a 400 m (east-west) × 150 m box per trial, so many
    // pairs lie near the threshold along a parallel
    val rnd = new scala.util.Random(11)
    for (trial <- 0 until 12) {
      val lat0 = rnd.nextDouble() * 70
      val lon0 = rnd.nextDouble() * 40 - 20
      val dLat = 150.0 / Haversine.MetresPerDegLat
      val dLon = 400.0 / Haversine.metresPerDegLon(lat0)
      val pts = (0 until 100).map { i =>
        (i.toLong, lat0 + rnd.nextDouble() * dLat, lon0 + rnd.nextDouble() * dLon)
      }
      assert(grid(pts, 100.0) === brute(pts, 100.0), s"trial $trial at lat $lat0")
    }
  }

  test("no pairs when all points are far apart") {
    val pts = Seq((1L, 53.30, -6.40), (2L, 53.35, -6.30), (3L, 53.40, -6.20))
    assert(grid(pts, 100.0) === Set.empty[(Long, Long)])
  }

  test("coincident points are paired") {
    val pts = Seq((1L, 53.33, -6.26), (2L, 53.33, -6.26), (3L, 53.4, -6.4))
    assert(grid(pts, 10.0) === Set((1L, 2L)))
  }

  test("pairs are strictly ordered (id_a < id_b), no duplicates") {
    import spark.implicits._
    val pts = randomPoints(100, 4)
    val rows = SpatialGrid.neighbourPairs(spark, pts.toDF("id", "lat", "lon"), 150.0)
      .select("id_a", "id_b").as[(Long, Long)].collect()
    assert(rows.forall { case (a, b) => a < b })
    assert(rows.length === rows.distinct.length)
  }

  test("reported distances equal the Haversine distance") {
    import spark.implicits._
    val pts = randomPoints(60, 5)
    val byId = pts.map(p => p._1 -> p).toMap
    val rows = SpatialGrid.neighbourPairs(spark, pts.toDF("id", "lat", "lon"), 200.0)
      .select("id_a", "id_b", "dist_m").as[(Long, Long, Double)].collect()
    assert(rows.nonEmpty)
    rows.foreach { case (a, b, d) =>
      val (_, la1, lo1) = byId(a); val (_, la2, lo2) = byId(b)
      assert(math.abs(d - Haversine.metres(la1, lo1, la2, lo2)) < 1e-6)
      assert(d <= 200.0)
    }
  }

  test("neighbour lists equal brute force at random latitudes, with coincident points and cell edges") {
    val t = 100.0
    val rnd = new scala.util.Random(23)
    for (trial <- 0 until 10) {
      val lat0 = rnd.nextDouble() * 70
      val lon0 = rnd.nextDouble() * 40 - 20
      val dLat = 300.0 / Haversine.MetresPerDegLat
      val dLon = 300.0 / Haversine.metresPerDegLon(lat0)
      val field = IndexedSeq.fill(150)((lat0 + rnd.nextDouble() * dLat, lon0 + rnd.nextDouble() * dLon))
      // points on the grid's cell edges, sized as SpatialGrid.pairs sizes them
      val maxAbsLat = (lat0 + dLat).abs.max(lat0.abs)
      val cellLat = math.toDegrees(t / Haversine.EarthRadiusM)
      val cellLon = math.toDegrees(2 * math.asin(math.min(1.0,
        math.sin(t / (2 * Haversine.EarthRadiusM)) / math.cos(math.toRadians(maxAbsLat)))))
      val (y0, x0) = (math.ceil(lat0 / cellLat), math.ceil(lon0 / cellLon))
      val edges = for (dy <- 0 to 2; dx <- 0 to 2) yield ((y0 + dy) * cellLat, (x0 + dx) * cellLon)
      // and every tenth point again, coincident with the first copy
      val coords = rnd.shuffle(field ++ edges ++ field.indices.by(10).map(field))
      val (lats, lons) = (coords.map(_._1).toArray, coords.map(_._2).toArray)
      val n = coords.size
      val g = SpatialGrid.pairs(lats, lons, t)
      def metres(i: Int, j: Int) = Haversine.metres(lats(i min j), lons(i min j), lats(i max j), lons(i max j))

      assert(g.n === n && g.offsets(0) === 0 && g.offsets(n) === g.nbr.length && g.nbr.length === g.metres.length)
      val entries = for (r <- 0 until n; e <- g.offsets(r) until g.offsets(r + 1)) yield (r, g.nbr(e), g.metres(e))
      for (r <- 0 until n) {
        val row = (g.offsets(r) until g.offsets(r + 1)).map(g.nbr)
        assert(row === row.sorted && row.distinct === row, s"trial $trial: row $r is not strictly ascending")
      }
      entries.foreach { case (r, c, d) =>
        assert(r != c, s"trial $trial: self pair at $r")
        assert(java.lang.Double.doubleToRawLongBits(d) === java.lang.Double.doubleToRawLongBits(metres(r, c)),
          s"trial $trial: distance of ($r, $c)")
      }
      // symmetric, each pair once per direction
      assert(entries.map { case (r, c, d) => (c, r, d) }.sorted === entries.sorted, s"trial $trial: asymmetric")
      val brute = for (i <- 0 until n; j <- i + 1 until n if metres(i, j) <= t) yield (i, j)
      assert(entries.filter(e => e._1 < e._2).map(e => (e._1, e._2)) === brute, s"trial $trial at lat $lat0")
      assert(brute.count { case (i, j) => lats(i) == lats(j) && lons(i) == lons(j) } >= 15)
    }
    assert(SpatialGrid.pairs(Array.empty, Array.empty, t).offsets.toSeq === Seq(0))
    assert(SpatialGrid.pairs(Array(53.3), Array(-6.2), t).offsets.toSeq === Seq(0, 0))
  }

  test("pairs fails early once the neighbour lists would need more entries than Int offsets index") {
    // the guard pairs applies before it allocates the lists, checked on a
    // count alone so the test allocates nothing large
    assert(2 * SpatialGrid.MaxPairs <= Int.MaxValue && 2 * (SpatialGrid.MaxPairs + 1) > Int.MaxValue)
    SpatialGrid.requireFits(SpatialGrid.MaxPairs, 100.0, 50000)
    val e = intercept[IllegalArgumentException](SpatialGrid.requireFits(SpatialGrid.MaxPairs + 1, 100.0, 50000))
    assert(e.getMessage.contains("1073741824 pairs"), e.getMessage)
    assert(e.getMessage.contains("100.0 m") && e.getMessage.contains("50000 points"), e.getMessage)
  }

  test("boundary pair exactly at threshold is included") {
    // ~100.07 m apart at 0.0009 deg latitude: use threshold just above
    val pts = Seq((1L, 53.3300, -6.26), (2L, 53.3300 + 100.0 / Haversine.MetresPerDegLat, -6.26))
    assert(grid(pts, 100.5) === Set((1L, 2L)))
    assert(grid(pts, 99.5) === Set.empty[(Long, Long)])
  }
}

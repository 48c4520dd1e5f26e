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

  test("boundary pair exactly at threshold is included") {
    // ~100.07 m apart at 0.0009 deg latitude: use threshold just above
    val pts = Seq((1L, 53.3300, -6.26), (2L, 53.3300 + 100.0 / Haversine.MetresPerDegLat, -6.26))
    assert(grid(pts, 100.5) === Set((1L, 2L)))
    assert(grid(pts, 99.5) === Set.empty[(Long, Long)])
  }
}

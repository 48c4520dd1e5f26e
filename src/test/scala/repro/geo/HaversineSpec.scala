package repro.geo

import repro.SparkSpec

/** Unit tests for the Haversine distance (paper eq. 1). */
class HaversineSpec extends SparkSpec {

  private val dublin = (53.3498, -6.2603) // O'Connell Bridge-ish
  private val cork = (51.8985, -8.4756)

  private def samples(n: Int, seed: Long = 42L): Seq[(Double, Double)] = {
    val rnd = new scala.util.Random(seed)
    Seq.fill(n)((53.0 + rnd.nextDouble(), -7.0 + rnd.nextDouble()))
  }

  test("distance to self is zero") {
    assert(Haversine.metres(53.3, -6.2, 53.3, -6.2) === 0.0)
  }

  test("known distance Dublin to Cork is ~220 km") {
    val d = Haversine.metres(dublin._1, dublin._2, cork._1, cork._2)
    assert(d > 200000 && d < 240000, s"got $d")
  }

  test("one degree of latitude is ~111.2 km") {
    val d = Haversine.metres(53.0, -6.2, 54.0, -6.2)
    assert(math.abs(d - 111195) < 200, s"got $d")
  }

  test("one degree of longitude at Dublin latitude is ~66 km") {
    val d = Haversine.metres(53.35, -6.0, 53.35, -7.0)
    assert(math.abs(d - 111195 * math.cos(math.toRadians(53.35))) < 300, s"got $d")
  }

  test("small offsets give metre-scale distances") {
    val d = Haversine.metres(53.35, -6.26, 53.351, -6.26)
    assert(math.abs(d - 111.2) < 1.0, s"got $d")
  }

  test("symmetry on fixed points") {
    val a = Haversine.metres(53.31, -6.21, 53.37, -6.29)
    val b = Haversine.metres(53.37, -6.29, 53.31, -6.21)
    assert(math.abs(a - b) < 1e-9)
  }

  test("antipodal points do not produce NaN") {
    val d = Haversine.metres(90.0, 0.0, -90.0, 0.0)
    assert(!d.isNaN && math.abs(d - math.Pi * Haversine.EarthRadiusM) < 1000)
  }

  test("property: non-negative and symmetric on 200 Dublin-area pairs") {
    val pts = samples(400)
    pts.grouped(2).foreach { p =>
      val ((la1, lo1), (la2, lo2)) = (p(0), p(1))
      val d = Haversine.metres(la1, lo1, la2, lo2)
      assert(d >= 0.0)
      assert(math.abs(d - Haversine.metres(la2, lo2, la1, lo1)) < 1e-8)
    }
  }

  test("property: triangle inequality on 100 Dublin-area triples") {
    samples(300, seed = 7).grouped(3).foreach { p =>
      val ((la1, lo1), (la2, lo2), (la3, lo3)) = (p(0), p(1), p(2))
      val ab = Haversine.metres(la1, lo1, la2, lo2)
      val bc = Haversine.metres(la2, lo2, la3, lo3)
      val ac = Haversine.metres(la1, lo1, la3, lo3)
      assert(ac <= ab + bc + 1e-6)
    }
  }

  test("property: haversine agrees with equirectangular at small distances") {
    val rnd = new scala.util.Random(11)
    (1 to 100).foreach { _ =>
      val la = 53.2 + rnd.nextDouble() * 0.2
      val lo = -6.4 + rnd.nextDouble() * 0.2
      val dLa = (rnd.nextDouble() - 0.5) * 0.002 // up to ~110 m
      val dLo = (rnd.nextDouble() - 0.5) * 0.002
      val d = Haversine.metres(la, lo, la + dLa, lo + dLo)
      val flat = math.sqrt(
        math.pow(dLa * Haversine.MetresPerDegLat, 2) +
        math.pow(dLo * Haversine.metresPerDegLon(la), 2))
      assert(math.abs(d - flat) < 0.3, s"$d vs $flat")
    }
  }

  test("metresPerDegLon shrinks with latitude") {
    assert(Haversine.metresPerDegLon(0.0) > Haversine.metresPerDegLon(53.0))
    assert(Haversine.metresPerDegLon(53.0) > Haversine.metresPerDegLon(80.0))
  }

  test("MetresPerDegLat constant is consistent with the formula") {
    val d = Haversine.metres(53.0, -6.2, 53.001, -6.2)
    assert(math.abs(d - Haversine.MetresPerDegLat * 0.001) < 0.01)
  }

  test("nearest: the least distance wins, and an exact tie goes to the lower id") {
    // dyadic degrees: points 1/4096 degree north and south of the query, or
    // 1/2048 degree east and west, are at bitwise-equal distances
    val (la, lo) = (53.25, -6.25)
    val (north, south) = (la + 1 / 4096.0, la - 1 / 4096.0)
    val (east, west) = (lo + 1 / 2048.0, lo - 1 / 2048.0)
    assert(Haversine.metres(la, lo, north, lo) == Haversine.metres(la, lo, south, lo))
    assert(Haversine.metres(la, lo, la, east) == Haversine.metres(la, lo, la, west))
    val dNorth = Haversine.metres(la, lo, north, lo)
    def nearest(ids: Array[Long], lats: Array[Double], lons: Array[Double]) =
      Haversine.nearest(la, lo, PointTable(ids, lats, lons))
    // the far point first, then the tied pair: the lower of the two ids
    assert(nearest(Array(2L, 5L, 9L), Array(la + 0.01, south, north), Array(lo, lo, lo)) === (dNorth, 5L))
    // a tie with the first point keeps it
    assert(nearest(Array(1L, 4L), Array(north, south), Array(lo, lo)) === (dNorth, 1L))
    assert(nearest(Array(1L, 4L), Array(la, la), Array(west, east))._2 === 1L)
    // a strictly nearer later point wins
    assert(nearest(Array(1L, 4L, 6L), Array(north, la + 0.5 / 4096.0, south), Array(lo, lo, lo))._2 === 4L)
  }

  test("nearest of no points fails") {
    val e = intercept[UnsupportedOperationException](
      Haversine.nearest(53.3, -6.2, PointTable(Array.empty, Array.empty, Array.empty)))
    assert(e.getMessage === "nearest of no points")
  }

  test("PointTable: equal column lengths and strictly ascending ids") {
    intercept[IllegalArgumentException](PointTable(Array(1L, 2L), Array(53.3), Array(-6.2, -6.3)))
    val e = intercept[IllegalArgumentException](PointTable(Array(2L, 2L), Array(53.3, 53.4), Array(-6.2, -6.3)))
    assert(e.getMessage.contains("point ids must be strictly ascending"))
    intercept[IllegalArgumentException](PointTable(Array(3L, 2L), Array(53.3, 53.4), Array(-6.2, -6.3)))
    val t = PointTable(Array(2L, 5L, 8L), Array(53.2, 53.5, 53.8), Array(-6.2, -6.5, -6.8))
    val kept = t.subset(_ != 1)
    assert(kept.ids.toSeq === Seq(2L, 8L) && kept.lats.toSeq === Seq(53.2, 53.8) && kept.lons.toSeq === Seq(-6.2, -6.8))
  }

  test("PointTable.ofRows sorts the rows by id and reads the named columns") {
    import org.apache.spark.sql.Row
    val t = PointTable.ofRows(Array(Row(9L, "a", 53.9, -6.9), Row(1L, "b", 53.1, -6.1), Row(4L, "c", 53.4, -6.4)), 2, 3)
    assert(t.ids.toSeq === Seq(1L, 4L, 9L))
    assert(t.lats.toSeq === Seq(53.1, 53.4, 53.9) && t.lons.toSeq === Seq(-6.1, -6.4, -6.9))
  }
}

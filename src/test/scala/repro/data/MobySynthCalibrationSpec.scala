package repro.data

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.MobySchema._

/** Tests for the calibration machinery added to match the paper's
  * evaluation shape: anchor popularity CDFs, destination sharpening,
  * trip mirroring (reciprocity) and per-anchor temporal subtypes.
  */
class MobySynthCalibrationSpec extends SparkSpec {

  private lazy val data = repro.TestFixtures.data
  private lazy val c = repro.TestFixtures.counts

  // ---- anchor weights / CDFs ----

  test("station anchor weights have a weak tail") {
    val ws = MobySynth.anchorWeights("station", 92)
    assert(ws.size === 92)
    val weakCount = 92 / 15
    val weak = ws.takeRight(weakCount)
    val normalMin = ws.dropRight(weakCount).min
    assert(weak.forall(_ < normalMin / 5),
      "weak stations must be much weaker than the weakest normal station")
  }

  test("hotspot anchor weights are a permutation of the zipf sequence") {
    val ws = MobySynth.anchorWeights("hotspot", 200)
    val expected = (0 until 200).map(i => 1.0 / math.pow(i + 5, 1.05))
    assert(ws.sorted.reverse === expected.sorted.reverse)
    assert(ws !== expected, "weights must be permuted across positions")
  }

  /** `lo` starts at 0 and rises strictly below 1, so the intervals
    * [lo(k), lo(k+1)) and [lo(last), 1) partition [0, 1), none empty.
    */
  private def assertPartition(lo: Array[Double], what: String): Unit = {
    assert(lo.nonEmpty, s"$what has no intervals")
    assert(lo.head === 0.0, what)
    (lo :+ 1.0).sliding(2).foreach(p => assert(p(0) < p(1), s"$what: contiguous, non-empty intervals"))
  }

  test("anchor CDF rows partition [0,1] per class") {
    val cnt = MobySynth.counts(0.1)
    for ((cls, n) <- Seq("station" -> cnt.goodStations, "hotspot" -> cnt.hotspots)) {
      val ws = MobySynth.anchorWeights(cls, n)
      val lo = new MobySynth.Cdf(ws).lo
      assertPartition(lo, cls)
      // interval k is weight k's share
      val widths = (lo :+ 1.0).sliding(2).map(p => p(1) - p(0)).toSeq
      widths.zip(ws).foreach { case (d, w) => assert(math.abs(d - w / ws.sum) < 1e-12, cls) }
    }
  }

  test("destination anchor CDF rows partition [0,1] per region") {
    val cnt = MobySynth.counts(0.1)
    val dest = MobySynth.destinations(cnt, MobySynth.anchors(cnt))
    for (r <- Regions.map(_.code)) {
      assert(dest.contains(r), s"region $r has no destination anchors")
      val (at, cdf) = dest(r)
      assert(cdf.lo.length === at.size)
      assertPartition(cdf.lo, s"region $r")
    }
  }

  test("destination CDF references only anchors of its own region") {
    val cnt = MobySynth.counts(0.1)
    val anchors = MobySynth.anchors(cnt)
    val dest = MobySynth.destinations(cnt, anchors)
    for ((region, (at, _)) <- dest; g <- at)
      assert(anchors(g).region === region)
    // and every anchor is a destination of exactly one region
    assert(dest.values.flatMap(_._1).toSeq.sorted === anchors.indices)
  }

  // ---- anchors geometry ----

  test("hotspots extend beyond the station footprint in every region") {
    import repro.geo.Haversine
    val cnt = MobySynth.counts(1.0)
    val anchors = MobySynth.anchors(cnt)
    for (r <- Regions) {
      val sts = anchors.filter(a => a.cls == "station" && a.region == r.code)
      val hot = anchors.filter(a => a.cls == "hotspot" && a.region == r.code)
      if (sts.nonEmpty && hot.nonEmpty) {
        def maxR(as: Seq[MobySynth.Anchor]) =
          as.map(a => Haversine.metres(a.lat, a.lon, r.lat, r.lon)).max
        assert(maxR(hot) > maxR(sts), s"region ${r.code}: hotspots inside station ring")
      }
    }
  }

  test("all anchors stay inside Dublin and on land") {
    MobySynth.anchors(MobySynth.counts(1.0)).foreach { a =>
      assert(inDublin(a.lat, a.lon), s"anchor $a outside Dublin")
      assert(onLand(a.lat, a.lon), s"anchor $a at sea")
    }
  }

  // ---- mirroring / reciprocity ----

  test("a large share of node pairs are travelled in both directions") {
    import spark.implicits._
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
      .filter($"rental_location_id" =!= $"return_location_id")
    val pairs = good.select($"rental_location_id" as "a", $"return_location_id" as "b").distinct()
    val directed = pairs.count().toDouble
    val undirected = pairs.select(least($"a", $"b") as "x", greatest($"a", $"b") as "y")
      .distinct().count().toDouble
    // with ~50% mirroring, directed/undirected must exceed the no-mirror
    // baseline (~1.05 at this sf over raw location pairs; the paper's
    // station-level graph sits near 2.0)
    assert(directed / undirected > 1.15, s"reciprocity ratio ${directed / undirected}")
  }

  test("mirroring never touches coverage rentals (rule-6 exactness)") {
    import spark.implicits._
    // rentals with id < #locations must start at exactly location id
    val coverage = data.rentals.filter($"rental_id" < c.goodLocations)
    assert(coverage.filter($"rental_location_id" =!= $"rental_id").count() === 0L)
  }

  // ---- temporal subtypes ----

  test("commuter anchors are split into AM and PM subtypes") {
    import spark.implicits._
    // reconstruct the per-anchor hour histogram of origin trips: anchors
    // of the same region must show different AM/PM balances
    val meta = data.locationMeta.select($"location_id" as "rental_location_id",
                                        $"cls", $"anchor_idx", $"archetype")
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
      .join(meta, "rental_location_id")
      .filter($"archetype" === Archetype.Commuter)
      .withColumn("hr", hour($"start_ts"))
    val byAnchor = good.groupBy($"cls", $"anchor_idx")
      .agg(sum(when($"hr" >= 6 && $"hr" <= 10, 1).otherwise(0)) as "am",
           sum(when($"hr" >= 15 && $"hr" <= 19, 1).otherwise(0)) as "pm",
           count(lit(1)) as "n")
      .filter($"n" >= 30)
      .select(($"am" / $"n") as "amShare")
      .as[Double].collect()
    assert(byAnchor.length > 3, "need several busy commuter anchors")
    assert(byAnchor.exists(_ > 0.4), "no AM-dominant commuter anchors")
    assert(byAnchor.exists(_ < 0.3), "no PM-dominant commuter anchors")
  }

  test("destination draws are popularity-sharpened (top anchors absorb most trips)") {
    import spark.implicits._
    val meta = data.locationMeta.select($"location_id" as "return_location_id",
                                        $"cls", $"anchor_idx")
    val good = data.rentals.filter($"rental_id" < c.goodRentals).join(meta, "return_location_id")
    val perAnchor = good.groupBy($"cls", $"anchor_idx").count()
      .select($"count").as[Long].collect().sorted.reverse
    val total = perAnchor.sum.toDouble
    val top10pct = perAnchor.take(math.max(1, perAnchor.length / 10)).sum.toDouble
    assert(top10pct / total > 0.35, s"top-decile destination share ${top10pct / total}")
  }

  test("same-region locality: most same-block trips stay in-region") {
    import spark.implicits._
    val meta = data.locationMeta.select($"location_id", $"region", $"block")
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
      .join(meta.select($"location_id" as "rental_location_id",
                        $"region" as "o_r", $"block" as "o_b"), "rental_location_id")
      .join(meta.select($"location_id" as "return_location_id",
                        $"region" as "d_r", $"block" as "d_b"), "return_location_id")
    val sameBlock = good.filter($"o_b" === $"d_b")
    val sameRegion = sameBlock.filter($"o_r" === $"d_r").count().toDouble
    val share = sameRegion / sameBlock.count()
    assert(share > 0.6, s"same-region share of same-block trips: $share")
  }
}

package repro.data

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.TimestampType
import repro.{Oracle, SparkSpec}
import repro.data.MobySchema._
import repro.geo.Haversine

/** Tests for the synthetic Moby generator. Run at small sf for speed;
  * calibration against the paper's exact Table I counts happens at sf=1
  * in the bench suite.
  */
class MobySynthSpec extends SparkSpec {

  private val sf = repro.TestFixtures.sf
  private lazy val data = repro.TestFixtures.data
  private lazy val c = repro.TestFixtures.counts

  /** SHA-256 over the sorted rows of `df`: fields joined by '|', doubles
    * written by Double.toString, timestamps as epoch microseconds. The
    * schema (names, types, nullability) is hashed first.
    */
  private def digest(df: DataFrame): String = {
    val cols = df.schema.fields.map { f =>
      if (f.dataType == TimestampType) unix_micros(col(f.name)) as f.name else col(f.name)
    }
    val lines = df.select(cols.toIndexedSeq: _*).collect()
      .map(_.toSeq.map(v => String.valueOf(v)).mkString("|")).sorted
    val md = MessageDigest.getInstance("SHA-256")
    (df.schema.toDDL +: lines).foreach(l => md.update((l + "\n").getBytes(UTF_8)))
    md.digest().map("%02x".format(_)).mkString
  }

  test("generated tables are row-identical to the pinned digests") {
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    def digests(seed: Long, tz: String): Seq[String] = {
      spark.conf.set(zoneKey, tz)
      val d = MobySynth.generate(spark, sf, seed)
      Seq(d.stations, d.locations, d.rentals, d.locationMeta).map(digest)
    }
    // stations, locations, rentals, locationMeta at sf=0.05; stations do
    // not depend on the seed. The dirty rentals' fixed timestamps are
    // java.sql.Timestamp literals, read in the JVM's default zone (UTC
    // when these were pinned).
    val stations = "9c81978479ae7a878cf0c7f8814677ff7b5c003e37522dae276e07483f0d07f0"
    try {
      assert(digests(7L, "UTC") === Seq(stations,
        "b527fc276045d0fc62062ef0b19331140606b954fbfdeecfb709c67f6686b798",
        "75506a2fbec7f53c7c23d35cd494323b52d15288bb37fd304f8e33f606a217d5",
        "e1362d34a7f4a1a652f74b5f2a52e1eee14a5c74df419747f528098cb6068c6b"))
      assert(digests(8L, "UTC") === Seq(stations,
        "29a26511e7d9a51c81dc931cc2c384d9d82d4ba7586d986dbbc6cd151dba83d7",
        "d2d5df206291850813f9cbc86583db5a7c5895d966ae453990cc7bfa9a03c23c",
        "f922fd3789a86c486d6b9dab6fb47bfe2b1d97ba76eac84fc0d28a984f7ff1f1"))
      // the observation window has DST days in Europe/Dublin
      assert(digests(7L, "Europe/Dublin") === Seq(stations,
        "b527fc276045d0fc62062ef0b19331140606b954fbfdeecfb709c67f6686b798",
        "e9e1479c7e969cf08eb0581e0ded40a07ea64b8b1dd945782fa99abcb1b3e00d",
        "e1362d34a7f4a1a652f74b5f2a52e1eee14a5c74df419747f528098cb6068c6b"))
    } finally spark.conf.set(zoneKey, zone)
  }

  test("driver uniforms equal the Spark xxhash64 expression") {
    import spark.implicits._
    val rnd = new scala.util.Random(5)
    val rows = (0 until 1000).map { k =>
      (rnd.nextLong(), rnd.nextInt(1 << 30), if (k % 2 == 0) rnd.nextLong() else rnd.nextInt(100000).toLong,
       if (k % 2 == 0) "station" else "hotspot")
    }
    // checkpointed so the expressions run in generated code over a scan,
    // as they did over spark.range
    val df = rows.toDF("seed", "salt", "id", "cls").localCheckpoint()
    def u(salt: Column, keys: Column*): Column =
      pmod(xxhash64(($"seed" +: salt +: keys): _*), lit(1000003L)) / 1000003.0
    val z = greatest(lit(-3.0), least(lit(3.0),
      sqrt(lit(-2.0) * log(u($"salt", $"id") * 0.999999 + 1e-7)) *
        cos(lit(2 * math.Pi) * u($"salt" + 1000, $"id"))))
    val got = df.select($"seed", $"salt", $"id", $"cls",
      u($"salt", $"id"), u($"salt", xxhash64($"cls"), $"id"), z).collect()
    assert(got.length === 1000)
    got.foreach { r =>
      val (seed, salt, id, cls) = (r.getLong(0), r.getInt(1), r.getLong(2), r.getString(3))
      val at = s"seed=$seed salt=$salt id=$id cls=$cls"
      assert(MobySynth.uniform(seed, salt, id) === r.getDouble(4), at)
      assert(MobySynth.uniform(seed, salt, MobySynth.hashString(cls), id) === r.getDouble(5), at)
      assert(MobySynth.normal(seed, salt, id) === r.getDouble(6), at)
    }
  }

  test("CDF binary search returns the row of the linear lo <= u < hi filter") {
    val rnd = new scala.util.Random(3)
    def check(name: String, cdf: MobySynth.Cdf): Unit = {
      val lo = cdf.lo.toIndexedSeq
      val hi = lo.tail :+ 1.0 // each interval ends where the next begins
      val us = 0.0 +: (lo.indices.flatMap(k => Seq(lo(k), math.nextDown(hi(k)))) ++ Seq.fill(100)(rnd.nextDouble()))
      us.foreach { x =>
        val linear = lo.indices.filter(k => lo(k) <= x && x < hi(k))
        assert(linear.size === 1, s"$name u=$x")
        assert(cdf.draw(x) === linear.head, s"$name u=$x")
      }
    }
    for (sf <- Seq(0.05, 1.0)) {
      val cnt = MobySynth.counts(sf)
      for ((cls, n) <- Seq("station" -> cnt.goodStations, "hotspot" -> cnt.hotspots))
        check(s"anchor $cls sf=$sf", new MobySynth.Cdf(MobySynth.anchorWeights(cls, n)))
      for ((region, (_, cdf)) <- MobySynth.destinations(cnt, MobySynth.anchors(cnt)))
        check(s"destination $region sf=$sf", cdf)
    }
    for ((kind, weights) <- Seq("day" -> MobySynth.DayWeights, "hour" -> MobySynth.HourWeights);
         (a, ws) <- weights)
      check(s"$kind $a", new MobySynth.Cdf(ws))
  }

  test("apportion distributes exactly and proportionally") {
    val got = MobySynth.apportion(92, Seq(30, 14, 18, 6, 10, 14))
    assert(got.sum === 92L)
    assert(got === Seq(30L, 14L, 18L, 6L, 10L, 14L))
    val uneven = MobySynth.apportion(10, Seq(1, 1, 1))
    assert(uneven.sum === 10L)
    assert(uneven.forall(n => n == 3L || n == 4L))
  }

  test("apportion handles zero-heavy weights") {
    val got = MobySynth.apportion(5, Seq(100, 1))
    assert(got.sum === 5L)
    assert(got.head >= 4L)
  }

  test("row counts match the calibration at sf=0.05") {
    assert(data.stations.count() === c.totalStations)
    assert(data.locations.count() === c.totalLocations)
    assert(data.rentals.count() === c.totalRentals)
  }

  test("counts calibration reproduces the paper's totals at sf=1") {
    val c1 = MobySynth.counts(1.0)
    assert(c1.totalStations === 95L)
    assert(c1.goodStations === 92L)
    assert(c1.totalLocations === 14239L)
    assert(c1.goodLocations === 14156L)
    assert(c1.totalRentals === 62324L)
    assert(c1.goodRentals === 61872L)
  }

  test("generation is deterministic in (sf, seed)") {
    val a = MobySynth.generate(spark, sf, 7L)
    val sumA = a.rentals.agg(sum(col("rental_location_id")), sum(col("return_location_id"))).head()
    val b = MobySynth.generate(spark, sf, 7L)
    val sumB = b.rentals.agg(sum(col("rental_location_id")), sum(col("return_location_id"))).head()
    assert(sumA === sumB)
    assert(a.locations.agg(sum(col("lat"))).head().getDouble(0)
      === b.locations.agg(sum(col("lat"))).head().getDouble(0))
  }

  test("different seeds give different data") {
    val b = MobySynth.generate(spark, sf, 8L)
    assert(data.locations.agg(sum(col("lat"))).head().getDouble(0)
      !== b.locations.agg(sum(col("lat"))).head().getDouble(0))
  }

  test("good stations are spatially valid, 3 bad stations are not") {
    val bad = data.stations.select("lat", "lon").collect().count(r => r.isNullAt(0) || r.isNullAt(1) ||
      !(inDublin(r.getDouble(0), r.getDouble(1)) && onLand(r.getDouble(0), r.getDouble(1))))
    assert(bad === 3)
    assert(data.stations.count() - 3L === c.goodStations)
  }

  test("good locations all inside Dublin and on land") {
    import spark.implicits._
    val good = data.locations.filter($"location_id" < c.goodLocations)
    val coords = good.select($"lat", $"lon").as[(Double, Double)].collect()
    coords.foreach { case (la, lo) =>
      assert(inDublin(la, lo), s"($la,$lo) outside Dublin")
      assert(onLand(la, lo), s"($la,$lo) at sea")
    }
  }

  test("bad locations fail exactly their intended rule") {
    import spark.implicits._
    val locs = data.locations.filter($"location_id" >= c.goodLocations)
      .select($"location_id", $"lat", $"lon").collect()
    locs.foreach { r =>
      val id = r.getLong(0)
      if (id < c.outsideLocBase) {
        // orphans: spatially valid, removed only by the reference rule
        assert(inDublin(r.getDouble(1), r.getDouble(2)) && onLand(r.getDouble(1), r.getDouble(2)))
      } else if (id < c.seaLocBase) {
        assert(!r.isNullAt(1) && !inDublin(r.getDouble(1), r.getDouble(2)))
      } else if (id < c.noCoordLocBase) {
        assert(!r.isNullAt(1) && inDublin(r.getDouble(1), r.getDouble(2))
          && !onLand(r.getDouble(1), r.getDouble(2)))
      } else {
        assert(r.isNullAt(1) || r.isNullAt(2))
      }
    }
  }

  test("every good location is referenced by a good rental (coverage)") {
    import spark.implicits._
    val goodRentals = data.rentals.filter($"rental_id" < c.goodRentals)
    val referenced = goodRentals.select($"rental_location_id" as "id")
      .union(goodRentals.select($"return_location_id" as "id")).distinct()
    assert(referenced.count() === c.goodLocations)
  }

  test("good rentals reference only good locations") {
    import spark.implicits._
    val goodRentals = data.rentals.filter($"rental_id" < c.goodRentals)
    assert(goodRentals.filter(
      $"rental_location_id" >= c.goodLocations || $"return_location_id" >= c.goodLocations
    ).count() === 0L)
  }

  test("orphan locations are referenced by no rental at all") {
    import spark.implicits._
    val orphans = (c.orphanLocBase until c.outsideLocBase)
    val refs = data.rentals.filter(
      $"rental_location_id".isin(orphans: _*) || $"return_location_id".isin(orphans: _*))
    assert(refs.count() === 0L)
  }

  test("bad rental categories have calibrated sizes (oracle-checked)") {
    import spark.implicits._
    val bad = data.rentals.filter($"rental_id" >= c.goodRentals)
    assert(bad.count() === c.badRentals)
    val missing = bad.filter($"rental_location_id".isNull || $"return_location_id".isNull)
    assert(missing.count() === c.missingIdRentals)
    // oracle: null-id rental count agrees with DuckDB over the same table
    val missingDf = data.rentals.groupBy()
      .agg(sum(when($"rental_location_id".isNull || $"return_location_id".isNull, 1)
        .otherwise(0)).cast("long") as "n_missing")
    Oracle.assertEquivalent(missingDf,
      """SELECT CAST(SUM(CASE WHEN rental_location_id IS NULL
        |OR return_location_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_missing
        |FROM rentals""".stripMargin,
      "rentals" -> data.rentals.select($"rental_id", $"rental_location_id", $"return_location_id"))
  }

  test("dangling rentals reference non-existent location ids") {
    import spark.implicits._
    val locIds = data.locations.select($"location_id")
    val dangling = data.rentals
      .filter($"rental_location_id".isNotNull && $"return_location_id".isNotNull)
      .join(locIds.withColumnRenamed("location_id", "rental_location_id"),
            Seq("rental_location_id"), "left_anti")
    assert(dangling.count() === (c.danglingRentals + 1) / 2)
  }

  test("timestamps are inside the paper's observation window") {
    import spark.implicits._
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
    val bounds = good.agg(min($"start_ts"), max($"start_ts")).head()
    assert(bounds.getTimestamp(0).toString >= "2020-01-06")
    assert(bounds.getTimestamp(1).toString <= "2021-09-13")
    assert(good.filter($"end_ts" <= $"start_ts").count() === 0L)
  }

  test("locations scatter tightly around their anchors") {
    import spark.implicits._
    val cnts = MobySynth.counts(sf)
    val anchorPos = MobySynth.anchors(cnts).map(a => (a.cls, a.idx) -> (a.lat, a.lon)).toMap
    val meta = data.locationMeta.select($"location_id", $"cls", $"anchor_idx")
      .as[(Long, String, Long)].collect().map(t => t._1 -> (t._2, t._3)).toMap
    val coords = data.locations.filter($"location_id" < cnts.goodLocations)
      .select($"location_id", $"lat", $"lon").as[(Long, Double, Double)].collect()
    coords.foreach { case (id, la, lo) =>
      val (ala, alo) = anchorPos(meta(id))
      val d = Haversine.metres(la, lo, ala, alo)
      assert(d <= 90.0, s"location $id is ${d}m from its anchor") // 3σ clamp ⇒ ≤ ~77 m
    }
  }

  test("every anchor owns at least one location (coverage forcing)") {
    import spark.implicits._
    val cnts = MobySynth.counts(sf)
    val owned = data.locationMeta.select($"cls", $"anchor_idx").distinct().count()
    assert(owned === cnts.goodStations + cnts.hotspots)
  }

  test("block self-containment of trips is near the configured 78%+5% round trips") {
    import spark.implicits._
    val meta = data.locationMeta.select($"location_id", $"block")
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
    val joined = good
      .join(meta.select($"location_id" as "rental_location_id", $"block" as "o_b"), "rental_location_id")
      .join(meta.select($"location_id" as "return_location_id", $"block" as "d_b"), "return_location_id")
    val same = joined.filter($"o_b" === $"d_b").count().toDouble / joined.count()
    assert(same > 0.74 && same < 0.90, s"same-block fraction $same")
  }

  test("commuter trips are weekday-heavy, leisure trips weekend-heavy") {
    import spark.implicits._
    val meta = data.locationMeta.select($"location_id" as "rental_location_id", $"archetype")
    val good = data.rentals.filter($"rental_id" < c.goodRentals).join(meta, "rental_location_id")
      .withColumn("dow", pmod(dayofweek($"start_ts") + 5, lit(7)))
    def weekendShare(arch: String): Double = {
      val n = good.filter($"archetype" === arch)
      n.filter($"dow" >= 5).count().toDouble / n.count()
    }
    val commuterWe = weekendShare(Archetype.Commuter)
    val leisureWe = weekendShare(Archetype.Leisure)
    assert(commuterWe < 0.25, s"commuter weekend share $commuterWe")
    assert(leisureWe > 0.40, s"leisure weekend share $leisureWe")
  }

  test("commuter hour profile peaks at 8 and 17, leisure at midday") {
    import spark.implicits._
    val meta = data.locationMeta.select($"location_id" as "rental_location_id", $"archetype")
    val good = data.rentals.filter($"rental_id" < c.goodRentals).join(meta, "rental_location_id")
      .withColumn("hr", hour($"start_ts"))
    def hist(arch: String): Map[Int, Long] =
      good.filter($"archetype" === arch).groupBy($"hr").count()
        .as[(Int, Long)].collect().toMap.withDefaultValue(0L)
    val ch = hist(Archetype.Commuter)
    assert(ch(8) > ch(12), "commuter AM peak beats midday")
    assert(ch(17) > ch(12), "commuter PM peak beats midday")
    val lh = hist(Archetype.Leisure)
    assert(lh(13) > lh(8), "leisure midday beats 8am")
  }

  test("round trips exist at roughly the configured rate") {
    import spark.implicits._
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
    val rt = good.filter($"rental_location_id" === $"return_location_id").count().toDouble
    val share = rt / good.count()
    // round-trip prob is 0.05 plus accidental same-destination draws
    assert(share > 0.03 && share < 0.12, s"round-trip share $share")
  }

  test("station-class locations are ~70% of good locations") {
    import spark.implicits._
    val st = data.locationMeta.filter($"cls" === "station").count().toDouble
    assert(math.abs(st / c.goodLocations - 0.70) < 0.01)
  }

  test("trip-count aggregation by origin matches DuckDB oracle") {
    import spark.implicits._
    val good = data.rentals.filter($"rental_id" < c.goodRentals)
    val sparkAgg = good.groupBy($"rental_location_id")
      .agg(count(lit(1)) as "n_trips")
      .filter($"rental_location_id" < 50)
    Oracle.assertEquivalent(sparkAgg,
      s"""SELECT rental_location_id, CAST(COUNT(*) AS BIGINT) AS n_trips
         |FROM rentals WHERE CAST(rental_id AS BIGINT) < ${c.goodRentals}
         |AND CAST(rental_location_id AS BIGINT) < 50
         |GROUP BY rental_location_id""".stripMargin,
      "rentals" -> data.rentals.select($"rental_id", $"rental_location_id"))
  }
}

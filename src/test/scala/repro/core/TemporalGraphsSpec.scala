package repro.core

import java.sql.Timestamp
import java.time.{Instant, ZoneId}
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Tests for the temporal graph builders (G_Basic, G_Day, G_Hour) with
  * co-activity weighting: w_T(i,j) = Σ_s #trips(i,j,s)·r^γ where
  * r = |S|·(q_i(s)+q_j(s))/2.
  */
class TemporalGraphsSpec extends SparkSpec {

  import TemporalGraphs._

  private def trip(id: Long, s: Long, d: Long, ts: String) =
    (id, s, d, Timestamp.valueOf(ts))

  private lazy val toyTrips = {
    import spark.implicits._
    Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"), // Monday
      trip(2, 2, 1, "2020-06-01 09:00:00"), // Monday
      trip(3, 1, 2, "2020-06-06 13:00:00"), // Saturday
      trip(4, 3, 3, "2020-06-03 12:00:00"), // Wednesday, self-loop
      trip(5, 2, 3, "2020-06-06 13:30:00"), // Saturday
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
  }

  /** `sliceCounts` as (src id <= dst id, slice) → trips */
  private def sliceMap(t: TripTable, g: Granularity): Map[(Long, Long, Int), Long] = {
    val (keys, counts) = sliceCounts(t, g)
    val n = t.ids.length
    keys.indices.map { i =>
      val pair = keys(i) / g.slices
      (t.ids((pair / n).toInt), t.ids((pair % n).toInt), (keys(i) % g.slices).toInt) -> counts(i)
    }.toMap
  }

  private implicit class Tup3Map(rows: Array[(Long, Long, Double)]) {
    def toMap2: Map[(Long, Long), Double] = rows.map(t => (t._1, t._2) -> t._3).toMap
  }

  test("slice: TNull is constant zero") {
    import spark.implicits._
    val s = toyTrips.select(sliceCol(TNull, $"start_ts") as "s").distinct().as[Int].collect()
    assert(s.toSeq === Seq(0))
  }

  test("dayHour equals the TDay and THour sliceCols near DST changes and on random instants") {
    import spark.implicits._
    val zones = Seq("UTC", "Europe/Dublin", "America/Los_Angeles")
    val (from, until) = (Instant.parse("2020-01-01T00:00:00Z"), Instant.parse("2022-01-01T00:00:00Z"))
    def changes(zone: String): Seq[Instant] = {
      val rules = ZoneId.of(zone).getRules
      Iterator.unfold(from)(t => Option(rules.nextTransition(t)).map(_.getInstant)
        .filter(_.isBefore(until)).map(i => (i, i))).toSeq
    }
    val dst = zones.flatMap(changes)
    assert(dst.size === 8, dst) // spring and autumn of 2020 and 2021, in Dublin and Los Angeles
    // every 15 minutes within 2 h of each change, and 1,000 seeded instants
    val near = dst.flatMap(t => (-8 to 8).map(k => t.plusSeconds(k * 900L)))
    val rnd = new scala.util.Random(17)
    val seconds = until.getEpochSecond - from.getEpochSecond
    val random = Seq.fill(1000)(from.plusSeconds((rnd.nextDouble() * seconds).toLong))
    val stamps = (near ++ random).map(Timestamp.from).toDF("ts")
    val zoneKey = "spark.sql.session.timeZone"
    val sessionZone = spark.conf.get(zoneKey)
    try for (zone <- zones) {
      spark.conf.set(zoneKey, zone)
      val rows = stamps.select($"ts", sliceCol(TDay, $"ts"), sliceCol(THour, $"ts")).collect()
      assert(rows.length === near.size + 1000)
      val wrong = rows.filter { r =>
        dayHour(r.getTimestamp(0).toInstant, ZoneId.of(zone)) != ((r.getInt(1), r.getInt(2)))
      }
      assert(wrong.isEmpty, s"$zone: ${wrong.take(5).mkString(", ")}")
    } finally spark.conf.set(zoneKey, sessionZone)
  }

  test("slice: TDay maps Monday to 0 and Sunday to 6") {
    import spark.implicits._
    val df = Seq(
      (Timestamp.valueOf("2020-06-01 10:00:00"), "mon"),
      (Timestamp.valueOf("2020-06-07 10:00:00"), "sun"),
      (Timestamp.valueOf("2020-06-06 10:00:00"), "sat"),
    ).toDF("ts", "label")
    val got = df.select($"label", sliceCol(TDay, $"ts") as "s").as[(String, Int)].collect().toMap
    assert(got("mon") === 0)
    assert(got("sat") === 5)
    assert(got("sun") === 6)
  }

  test("slice: THour extracts the start hour") {
    import spark.implicits._
    val got = toyTrips.select($"rental_id", sliceCol(THour, $"start_ts") as "s")
      .as[(Long, Int)].collect().toMap
    assert(got(1L) === 8)
    assert(got(3L) === 13)
  }

  test("sliceCounts from the one aggregate equal a per-granularity groupBy") {
    import spark.implicits._
    val trips = repro.TestFixtures.selected.trips
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    // Europe/Dublin moves hours (and days near midnight) against UTC and has DST switch days
    try for (tz <- Seq("UTC", "Europe/Dublin")) {
      spark.conf.set(zoneKey, tz)
      val all = table(trips)
      for (g <- Seq(TNull, TDay, THour)) {
        // selected first: TNull's lit(0) in a groupBy would be a column ordinal
        val expected = trips
          .select(least($"src_node", $"dst_node") as "src", greatest($"src_node", $"dst_node") as "dst",
                  sliceCol(g, $"start_ts") as "slice")
          .groupBy("src", "dst", "slice").count().as[(Long, Long, Int, Long)].collect()
          .map { case (a, b, s, n) => (a, b, s) -> n }.toMap
        assert(sliceMap(all, g) === expected, s"${g.name} under $tz")
      }
    } finally spark.conf.set(zoneKey, zone)
  }

  test("edges of the selected trips equal the weights of the selected trip table, bit for bit (UTC)") {
    import spark.implicits._
    val selected = repro.TestFixtures.selected
    // the pipeline slices the trips in the data's zone; edges slices them in the session's
    assert(repro.data.MobySchema.DefaultZone.normalized === ZoneId.of("UTC").normalized)
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    def bits(edges: Seq[(Long, Long, Double)]) =
      edges.map { case (a, b, w) => (a, b, java.lang.Double.doubleToRawLongBits(w)) }.sorted
    try {
      spark.conf.set(zoneKey, "UTC")
      for (g <- Seq(TNull, TDay, THour)) {
        val viaSpark = edges(spark, selected.trips, g).as[(Long, Long, Double)].collect().toSeq
        val direct = weights(selected.tripTable, g)
        assert(direct.nonEmpty && bits(viaSpark) === bits(direct), g.name)
      }
    } finally spark.conf.set(zoneKey, zone)
  }

  test("a trip table with columns of unequal length fails, naming them") {
    val e = intercept[IllegalArgumentException](TripTable(Array(1L, 2L), Array(0, 1), Array(1), Array(8, 9)))
    assert(e.getMessage.contains("unequal length: from 2, to 1, dayHour 2"), e.getMessage)
  }

  test("a trip table whose ids do not strictly ascend fails, naming them") {
    for (ids <- Seq(Array(2L, 1L), Array(3L, 3L))) {
      val e = intercept[IllegalArgumentException](TripTable(ids, Array(0), Array(1), Array(8)))
      assert(e.getMessage.contains("node ids must be strictly ascending"), e.getMessage)
    }
  }

  test("a trip table with a position outside its ids fails, naming the trip") {
    for ((from, to) <- Seq((0, 2), (-1, 0), (2, 1))) {
      val e = intercept[IllegalArgumentException](
        TripTable(Array(1L, 2L), Array(0, from), Array(1, to), Array(8, 9)))
      assert(e.getMessage.contains(s"trip 1 runs from position $from to $to, outside the 2 node ids"), e.getMessage)
    }
  }

  test("relabel moves each endpoint through the position map onto the new ids") {
    val t = TripTable(Array(10L, 20L, 30L), Array(0, 2, 1), Array(1, 2, 0), Array(8, 30, 100))
    val r = t.relabel(Array(1, 0, 1), Array(5L, 7L))
    assert(r.ids.toSeq === Seq(5L, 7L))
    assert((r.from.toSeq, r.to.toSeq, r.dayHour.toSeq) === ((Seq(1, 1, 0), Seq(0, 1, 1), Seq(8, 30, 100))))
  }

  // seeded random tables, and the edge cases each named: one node, a node
  // without trips, self-loops only, no trips, all trips in one slice
  test("pair counts, degrees and weights equal the map-based oracle, the weights bit for bit") {
    val rnd = new scala.util.Random(21)
    // trips between the first `used` of `nodes` ids, which ascend by random gaps
    def random(nodes: Int, used: Int, trips: Int, dayHour: => Int, loops: Boolean = false): TripTable = {
      val ids = Iterator.iterate(rnd.nextInt(1000).toLong)(_ + 1 + rnd.nextInt(2000000)).take(nodes).toArray
      val from = Array.fill(trips)(rnd.nextInt(used))
      val to = if (loops) from.clone() else Array.fill(trips)(rnd.nextInt(used))
      TripTable(ids, from, to, Array.fill(trips)(dayHour))
    }
    val cases = Seq(
      "one node" -> random(1, 1, 30, rnd.nextInt(168)),
      "a node without trips" -> random(6, 5, 80, rnd.nextInt(168)),
      "self-loops only" -> random(4, 4, 40, rnd.nextInt(168), loops = true),
      "no trips" -> random(3, 3, 0, 0),
      "all trips in one slice" -> random(5, 5, 60, 2 * 24 + 9)) ++
      (1 to 40).map { k =>
        val nodes = 1 + rnd.nextInt(12)
        s"random $k" -> random(nodes, 1 + rnd.nextInt(nodes), rnd.nextInt(150), rnd.nextInt(168))
      }
    val bits = (es: Seq[(Long, Long, Double)]) =>
      es.map { case (a, b, w) => (a, b, java.lang.Double.doubleToRawLongBits(w)) }
    for ((name, t) <- cases) {
      val (keys, counts) = pairCounts(t)
      val n = t.ids.length
      assert(keys.indices.map(i => (t.ids((keys(i) / n).toInt), t.ids((keys(i) % n).toInt)) -> counts(i)).toMap ===
        Oracle.pairCounts(t), name)
      val oracleDegrees = Oracle.degrees(t)
      assert(t.ids.zip(StationSelection.degrees(t)).toSeq === t.ids.toSeq.map(id => id -> oracleDegrees.getOrElse(id, 0L)),
        name)
      for (g <- Seq(TNull, TDay, THour); gamma <- Seq(1.0, DefaultGamma)) {
        assert(sliceMap(t, g) === Oracle.sliceCounts(t, g), s"$name ${g.name}")
        assert(bits(weights(t, g, gamma)) === bits(Oracle.weights(t, g, gamma)), s"$name ${g.name} gamma=$gamma")
      }
    }
  }

  test("TNull edges equal raw undirected trip counts") {
    import spark.implicits._
    val e = edges(spark, toyTrips, TNull).as[(Long, Long, Double)].collect().toMap2
    assert(e((1L, 2L)) === 3.0) // trips 1,2,3 collapse to one unordered pair
    assert(e((3L, 3L)) === 1.0)
    assert(e((2L, 3L)) === 1.0)
  }

  test("TNull is invariant to gamma (r ≡ 1)") {
    import spark.implicits._
    val a = edges(spark, toyTrips, TNull, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val b = edges(spark, toyTrips, TNull, gamma = 5.0).as[(Long, Long, Double)].collect().toMap2
    assert(a === b)
  }

  test("profiles count trip endpoints per slice") {
    val t = table(toyTrips)
    val raw = profiles(t, TDay)
    val p = (node: Long, slice: Int) => raw(java.util.Arrays.binarySearch(t.ids, node) * TDay.slices + slice)
    // node 1: trips 1 (Mon, src), 2 (Mon, dst), 3 (Sat, src)
    assert(p(1L, 0) === 2L)
    assert(p(1L, 5) === 1L)
    // node 3: trip 4 self (Wed) counts both endpoints + trip 5 dst (Sat)
    assert(p(3L, 2) === 2L)
    assert(p(3L, 5) === 1L)
  }

  test("TDay weights match the hand-computed co-activity factors (gamma=1)") {
    import spark.implicits._
    // q1 = {Mon: 2/3, Sat: 1/3}; q2 = {Mon: 1/2, Sat: 1/2};
    // q3 = {Wed: 2/3, Sat: 1/3}
    val e = edges(spark, toyTrips, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val r12mon = 7.0 * (2.0 / 3 + 0.5) / 2
    val r12sat = 7.0 * (1.0 / 3 + 0.5) / 2
    val r33wed = 7.0 * (2.0 / 3 + 2.0 / 3) / 2
    val r23sat = 7.0 * (0.5 + 1.0 / 3) / 2
    assert(math.abs(e((1L, 2L)) - (2 * r12mon + 1 * r12sat)) < 1e-9)
    assert(math.abs(e((3L, 3L)) - r33wed) < 1e-9)
    assert(math.abs(e((2L, 3L)) - r23sat) < 1e-9)
  }

  test("gamma amplifies the same factors") {
    import spark.implicits._
    val e = edges(spark, toyTrips, TDay, gamma = 2.0).as[(Long, Long, Double)].collect().toMap2
    val r33wed = 7.0 * (2.0 / 3 + 2.0 / 3) / 2
    assert(math.abs(e((3L, 3L)) - math.pow(r33wed, 2)) < 1e-9)
  }

  test("perfectly synchronized pair is boosted by |S| per trip") {
    import spark.implicits._
    // all activity of nodes 1 and 2 is on Monday: q = 1 ⇒ r = |S|
    val t = Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"),
      trip(2, 1, 2, "2020-06-01 09:00:00"),
      trip(3, 2, 1, "2020-06-01 10:00:00"),
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
    val e = edges(spark, t, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    assert(math.abs(e((1L, 2L)) - 3.0 * 7.0) < 1e-9)
  }

  test("off-rhythm edges are damped relative to in-rhythm edges") {
    import spark.implicits._
    // 1-2 trade in both nodes' peak (Mon); 2-3 trade on Monday but node 3
    // is mostly a Saturday node: its q(Mon) is low, so the 2-3 trip gets a
    // smaller co-activity factor than the 1-2 trips
    val t = Seq(
      trip(1, 1, 2, "2020-06-01 08:00:00"), // Mon
      trip(2, 1, 2, "2020-06-01 09:00:00"), // Mon
      trip(3, 3, 4, "2020-06-06 13:00:00"), // Sat
      trip(4, 3, 4, "2020-06-06 14:00:00"), // Sat
      trip(5, 2, 3, "2020-06-01 12:00:00"), // Mon, cross-pattern
    ).toDF("rental_id", "src_node", "dst_node", "start_ts")
    val e = edges(spark, t, TDay, gamma = 1.0).as[(Long, Long, Double)].collect().toMap2
    val perTrip12 = e((1L, 2L)) / 2
    val perTrip23 = e((2L, 3L)) / 1
    assert(perTrip23 < perTrip12,
      s"cross-pattern per-trip weight $perTrip23 not below in-rhythm $perTrip12")
  }

  test("total TNull weight equals the number of trips") {
    import spark.implicits._
    val data = repro.TestFixtures.selected
    val total = edges(spark, data.trips, TNull).agg(sum($"weight")).head().getDouble(0)
    assert(total === data.trips.count().toDouble)
  }

  test("edge aggregation matches DuckDB oracle on the toy graph") {
    import spark.implicits._
    val sparkEdges = edges(spark, toyTrips, TNull)
      .select($"src", $"dst", $"weight".cast("double") as "weight")
    Oracle.assertEquivalent(sparkEdges,
      """SELECT LEAST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS src,
        |GREATEST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS dst,
        |CAST(COUNT(*) AS DOUBLE) AS weight
        |FROM trips GROUP BY 1, 2""".stripMargin,
      "trips" -> toyTrips.select($"src_node", $"dst_node"))
  }

  test("co-activity weight of an edge matches a DuckDB reference (oracle)") {
    import spark.implicits._
    // independent relational formulation of the same computation, at the
    // granularities and the γ the tables use; weights are compared as
    // w / |S|^γ so that six decimals stay meaningful at r^γ up to 24^6
    for (g <- Seq(TDay, THour); gamma <- Seq(1.0, DefaultGamma)) {
      val scale = math.pow(g.slices, gamma)
      val sparkEdges = edges(spark, toyTrips, g, gamma)
        .select($"src", $"dst", round($"weight" / scale, 6) as "weight")
      Oracle.assertEquivalent(sparkEdges,
        s"""WITH t AS (
          |  SELECT LEAST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS src,
          |         GREATEST(CAST(src_node AS BIGINT), CAST(dst_node AS BIGINT)) AS dst,
          |         CAST(slice AS BIGINT) AS slice
          |  FROM trips),
          |ends AS (
          |  SELECT src AS node_id, slice FROM t
          |  UNION ALL SELECT dst, slice FROM t),
          |p AS (
          |  SELECT node_id, slice, CAST(COUNT(*) AS DOUBLE) AS p
          |  FROM ends GROUP BY node_id, slice),
          |q AS (
          |  SELECT node_id, slice, p / SUM(p) OVER (PARTITION BY node_id) AS q FROM p)
          |SELECT t.src, t.dst,
          |       ROUND(SUM(POWER(${g.slices} * (qs.q + qd.q) / 2, $gamma)) / $scale, 6) AS weight
          |FROM t
          |JOIN q qs ON qs.node_id = t.src AND qs.slice = t.slice
          |JOIN q qd ON qd.node_id = t.dst AND qd.slice = t.slice
          |GROUP BY t.src, t.dst""".stripMargin,
        "trips" -> toyTrips.select($"src_node", $"dst_node",
          sliceCol(g, $"start_ts") as "slice"))
    }
  }

  test("edges are always unordered (src <= dst)") {
    import spark.implicits._
    for (g <- Seq(TNull, TDay, THour)) {
      val bad = edges(spark, toyTrips, g).filter($"src" > $"dst").count()
      assert(bad === 0L)
    }
  }

  test("finer granularity raises modularity on the pipeline graph") {
    val basic = repro.TestFixtures.basic.summary
    val day = repro.TestFixtures.day.summary
    val hourly = repro.TestFixtures.hourly.summary
    assert(day.modularity > basic.modularity - 0.02)
    assert(hourly.modularity > basic.modularity)
  }
}

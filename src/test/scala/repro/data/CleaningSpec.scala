package repro.data

import java.sql.Timestamp
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, expr, hour, rand, spark_partition_id}
import org.apache.spark.sql.types.{LongType, StructField, StructType, TimestampType}
import repro.{Oracle, SparkSpec}
import repro.core.TemporalGraphs.{sliceCol, TDay, THour}

/** Tests for the §III cleaning pipeline (Table I). */
class CleaningSpec extends SparkSpec {

  private lazy val data = repro.TestFixtures.data
  private lazy val c = repro.TestFixtures.counts
  private lazy val cleaned = repro.TestFixtures.cleaned
  private lazy val rpt = repro.TestFixtures.report

  /** Rules 1–3 in Scala: every row of `table` has a lat and a lon inside
    * Dublin and on land.
    */
  private def spatiallyValid(table: DataFrame): Boolean = {
    import MobySchema._
    table.select("lat", "lon").collect().forall(r => !r.isNullAt(0) && !r.isNullAt(1) &&
      inDublin(r.getDouble(0), r.getDouble(1)) && onLand(r.getDouble(0), r.getDouble(1)))
  }

  /** Rules 1–3 in DuckDB SQL over the lat and lon of table alias `t`, from
    * the `MobySchema` constants. The oracle stores every column as text,
    * so each value is cast to a double, the constants from their exact
    * decimal strings.
    */
  private def validSql(t: String): String = {
    import MobySchema._
    def num(x: Double) = s"CAST('$x' AS DOUBLE)"
    val (lat, lon) = (s"CAST($t.lat AS DOUBLE)", s"CAST($t.lon AS DOUBLE)")
    s"""$lat IS NOT NULL AND $lon IS NOT NULL
       |  AND $lat BETWEEN ${num(DublinLatMin)} AND ${num(DublinLatMax)}
       |  AND $lon BETWEEN ${num(DublinLonMin)} AND ${num(DublinLonMax)}
       |  AND NOT ($lon > ${num(SeaLonMin)} AND $lat > ${num(SeaLatMin)} AND $lat < ${num(SeaLatMax)})""".stripMargin
  }

  test("cleaning removes exactly the injected bad stations") {
    assert(rpt.origStations === c.totalStations)
    assert(rpt.cleanStations === c.goodStations)
  }

  test("cleaning removes exactly the injected bad rentals") {
    assert(rpt.origRentals === c.totalRentals)
    assert(rpt.cleanRentals === c.goodRentals)
  }

  test("cleaning removes exactly the injected bad locations") {
    assert(rpt.origLocations === c.totalLocations)
    assert(rpt.cleanLocations === c.goodLocations)
  }

  test("report starts no Spark job and equals the six tables' counts") {
    val jobs = jobsStarted(Cleaning.report(data, cleaned))
    assert(jobs === 0, s"report started $jobs jobs")
    assert(rpt === Cleaning.Report(
      data.stations.count(), cleaned.stations.count(), data.rentals.count(),
      cleaned.rentals.count(), data.locations.count(), cleaned.locations.count()))
  }

  test("counts equal the cleaned rentals per location pair, weekday and hour (UTC and Europe/Dublin)") {
    import spark.implicits._
    val zoneKey = "spark.sql.session.timeZone"
    val zone = spark.conf.get(zoneKey)
    // Europe/Dublin moves hours (and days near midnight) against UTC; the
    // counts are collected by clean, so each zone gets a fresh clean
    try for (tz <- Seq("UTC", "Europe/Dublin")) {
      spark.conf.set(zoneKey, tz)
      val c = Cleaning.clean(data)
      val explicit = c.rentals
        .groupBy($"rental_location_id", $"return_location_id",
                 expr("weekday(start_ts)") as "day", hour($"start_ts") as "hour")
        .count().as[(Long, Long, Int, Int, Long)].collect()
        .map { case (a, b, day, h, n) => (a, b, day, h) -> n }.toMap
      assert(c.counts === explicit, tz)
      assert(c.counts.values.sum === c.rentals.count(), tz)
    } finally spark.conf.set(zoneKey, zone)
  }

  test("clean starts 1 Spark job and writes no shuffle") {
    val raw = data // the lazy fixture is generated outside the count
    val (jobs, shuffleBytes) = jobsAndShuffle(Cleaning.clean(raw))
    assert(jobs === 1, s"clean started $jobs jobs")
    assert(shuffleBytes === 0L, s"clean wrote $shuffleBytes shuffle bytes")
  }

  test("counts, origRentals and report do not depend on the rentals' partitioning") {
    import spark.implicits._
    // the fixture's dirty rentals: null endpoint ids and ids not in Location
    val locIds = data.locations.select($"location_id")
    assert(data.rentals.filter($"rental_location_id".isNull || $"return_location_id".isNull).count() > 0)
    assert(data.rentals.filter($"rental_location_id".isNotNull)
      .join(locIds.withColumnRenamed("location_id", "rental_location_id"), Seq("rental_location_id"), "left_anti")
      .count() > 0)
    val layouts = Seq(
      "one partition" -> data.rentals.coalesce(1),
      "7 partitions, shuffled" -> data.rentals.repartition(7).orderBy(rand(3)))
    for ((name, rentals) <- layouts) {
      val raw = data.copy(rentals = rentals)
      val c = Cleaning.clean(raw)
      assert(c.counts === cleaned.counts, name)
      assert(c.origRentals === cleaned.origRentals, name)
      assert(Cleaning.report(raw, c) === rpt, name)
    }
  }

  test("groups merges a key split across partitions and keeps null ids and times as keys") {
    val at = Timestamp.valueOf("2020-01-08 08:15:00")
    val rows = Seq[(java.lang.Long, java.lang.Long, Timestamp)](
      (1L, 2L, at), (1L, null, at), (3L, 4L, at), (null, null, null),
      (1L, 2L, new Timestamp(at.getTime + 60000)), (null, 2L, at), (1L, null, at),
      (3L, 4L, new Timestamp(at.getTime + 3600000)), (1L, 2L, at)
    ).map { case (a, b, t) => Row(a, b, t) }
    val schema = StructType(Seq(StructField("rental_location_id", LongType),
      StructField("return_location_id", LongType), StructField("start_ts", TimestampType)))
    val rentals = spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
    val ts = col("start_ts")
    val slices = Seq(col("rental_location_id"), col("return_location_id"), sliceCol(TDay, ts), sliceCol(THour, ts))

    // (1, 2, Wednesday, 8) has rows in the first and last partitions
    val split = Row(1L, 2L, 2, 8)
    val parts = rentals.select((slices :+ spark_partition_id()): _*).collect()
      .filter(r => Row.fromSeq(r.toSeq.init) == split).map(_.getInt(4)).distinct
    assert(parts.length > 1, parts.mkString(","))

    val reference = rentals.groupBy(slices: _*).count().collect()
      .map(r => Row.fromSeq(r.toSeq.init) -> r.getLong(4)).toMap
    val got = Cleaning.groups(rentals)
    assert(got === reference)
    assert(got(split) === 3L)
    assert(got(Row(1L, null, 2, 8)) === 2L)
    assert(got(Row(null, null, null, null)) === 1L)
    assert(got.values.sum === rows.length.toLong)
  }

  test("cleaned rentals have no null endpoint ids") {
    import spark.implicits._
    assert(cleaned.rentals.filter(
      $"rental_location_id".isNull || $"return_location_id".isNull).count() === 0L)
  }

  test("cleaned rentals reference only cleaned locations") {
    import spark.implicits._
    val ids = cleaned.locations.select($"location_id")
    val orphanRefs = cleaned.rentals
      .join(ids.withColumnRenamed("location_id", "rental_location_id"),
            Seq("rental_location_id"), "left_anti")
    assert(orphanRefs.count() === 0L)
    val orphanRefs2 = cleaned.rentals
      .join(ids.withColumnRenamed("location_id", "return_location_id"),
            Seq("return_location_id"), "left_anti")
    assert(orphanRefs2.count() === 0L)
  }

  test("every cleaned location is referenced by some cleaned rental (rule 6)") {
    import spark.implicits._
    val refs = cleaned.rentals.select($"rental_location_id" as "location_id")
      .union(cleaned.rentals.select($"return_location_id" as "location_id")).distinct()
    val unreferenced = cleaned.locations.join(refs, Seq("location_id"), "left_anti")
    assert(unreferenced.count() === 0L)
  }

  test("all cleaned locations are spatially valid") {
    assert(spatiallyValid(cleaned.locations))
  }

  test("all cleaned stations are spatially valid") {
    assert(spatiallyValid(cleaned.stations))
  }

  test("clean keeps the points DuckDB's rules 1-3 keep (oracle)") {
    import spark.implicits._
    import MobySchema._
    // each box and sea bound, a hair inside and outside, nulls, and random
    // points over and around the box
    val eps = 1e-9
    def around(edges: Double*) = edges.flatMap(e => Seq(e - eps, e, e + eps))
    val lats = around(DublinLatMin, DublinLatMax, SeaLatMin, SeaLatMax) :+ 53.30
    val lons = around(DublinLonMin, DublinLonMax, SeaLonMin) ++ Seq(-6.26, -6.08)
    val rnd = new scala.util.Random(11)
    val random = Seq.fill(2000)((53.10 + rnd.nextDouble() * 0.46, -6.60 + rnd.nextDouble() * 0.64))
    val points = (for (la <- lats; lo <- lons) yield (la, lo)) ++ random
    val cases = points.map { case (la, lo) => (Option(la), Option(lo)) } ++
      Seq((None, Some(-6.26)), (Some(53.30), None), (None, None))
    val coords = cases.zipWithIndex.map { case ((la, lo), i) => (i.toLong, la, lo) }
    val at = Timestamp.valueOf("2020-01-08 08:15:00")
    val toy = MobySchema.MobyData(
      stations = coords.map { case (i, la, lo) => (i, s"Station $i", la, lo) }
        .toDF("station_id", "station_name", "lat", "lon"),
      locations = coords.toDF("location_id", "lat", "lon"),
      // one round trip at every location, so rules 4-6 keep each valid one
      rentals = coords.map { case (i, _, _) => (i, 0, at, at, i, i) }
        .toDF("rental_id", "bike_id", "start_ts", "end_ts", "rental_location_id", "return_location_id"),
      locationMeta = spark.emptyDataFrame)
    val c = Cleaning.clean(toy)
    val query = s"SELECT p.id FROM points p WHERE ${validSql("p")}"
    val all = coords.toDF("id", "lat", "lon")
    Oracle.assertEquivalent(c.stations.select($"station_id" as "id"), query, "points" -> all)
    Oracle.assertEquivalent(c.locations.select($"location_id" as "id"), query, "points" -> all)
    // the inputs reach both answers, inside the box and across the sea
    val kept = c.table1.cleanStations
    assert(kept > 0 && kept < cases.size, s"$kept of ${cases.size} kept")
  }

  test("cleaning is idempotent") {
    val again = Cleaning.clean(MobySchema.MobyData(
      cleaned.stations, cleaned.locations, cleaned.rentals, data.locationMeta))
    assert(again.stations.count() === cleaned.stations.count())
    assert(again.locations.count() === cleaned.locations.count())
    assert(again.rentals.count() === cleaned.rentals.count())
  }

  test("cleaned rental count matches a DuckDB reference query (oracle)") {
    import spark.implicits._
    // express rules 1-5 relationally in DuckDB over the raw tables and
    // compare with the pipeline's surviving rental ids
    val sparkSurvivors = cleaned.rentals.select($"rental_id")
    Oracle.assertEquivalent(sparkSurvivors,
      s"""WITH valid AS (SELECT l.location_id FROM locations l WHERE ${validSql("l")})
         |SELECT r.rental_id FROM rentals r
         |JOIN valid lo ON r.rental_location_id = lo.location_id
         |JOIN valid ld ON r.return_location_id = ld.location_id
         |WHERE r.rental_location_id IS NOT NULL AND r.return_location_id IS NOT NULL""".stripMargin,
      "rentals" -> data.rentals.select($"rental_id", $"rental_location_id", $"return_location_id"),
      "locations" -> data.locations.select($"location_id", $"lat", $"lon"))
  }

  test("cleaned location set matches a DuckDB reference query (oracle)") {
    import spark.implicits._
    Oracle.assertEquivalent(cleaned.locations.select($"location_id"),
      s"""WITH valid AS (SELECT l.location_id FROM locations l WHERE ${validSql("l")}),
         |surv AS (
         |  SELECT r.* FROM rentals r
         |  JOIN valid lo ON r.rental_location_id = lo.location_id
         |  JOIN valid ld ON r.return_location_id = ld.location_id
         |  WHERE r.rental_location_id IS NOT NULL AND r.return_location_id IS NOT NULL)
         |SELECT DISTINCT v.location_id FROM valid v
         |JOIN (SELECT rental_location_id AS location_id FROM surv
         |      UNION SELECT return_location_id FROM surv) refs
         |  ON v.location_id = refs.location_id""".stripMargin,
      "rentals" -> data.rentals.select($"rental_id", $"rental_location_id", $"return_location_id"),
      "locations" -> data.locations.select($"location_id", $"lat", $"lon"))
  }

  test("counts scale linearly-ish with sf") {
    val small = MobySynth.counts(0.01)
    val big = MobySynth.counts(0.1)
    assert(big.goodRentals > small.goodRentals * 5)
    assert(big.goodLocations > small.goodLocations * 5)
  }
}

package repro.data

import java.time.ZoneId
import scala.annotation.unused
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.util.DateTimeUtils
import org.apache.spark.sql.types.StructType
import repro.core.TemporalGraphs
import MobySchema._

/** The paper's §III cleaning pipeline (produces Table I).
  *
  * Removal rules, applied jointly:
  *   1. locations outside Dublin, and rentals that touch them;
  *   2. locations not on land, and rentals that touch them;
  *   3. locations missing latitude or longitude, and rentals that touch them;
  *   4. rentals missing a rental- or return-location id;
  *   5. rentals whose rental- or return-location id is not in Location;
  *   6. locations never referenced by the surviving rentals.
  *
  * Stations are filtered with the spatial validity rules (1–3): the paper
  * drops 95 → 92 stations. Rules 1–3 have one encoding, `MobySchema.inDublin`
  * and `onLand` on the generated rows (`spatiallyValid`), and rules 4–5 one,
  * the valid-id test `survives`.
  *
  * The rentals are read by one Spark-core job without a shuffle and
  * without a query: each partition keeps its rentals that pass rules 4–5
  * and counts them per (rental location, return location, day, hour), and
  * the driver merges the partial counts ([[groups]]) and applies rule 6.
  */
object Cleaning {

  /** @param raw            the generated tables `clean` read
    * @param stationPoints  (station_id, lat, lon) of the valid stations, by id
    * @param locationPoints (location_id, lat, lon) of the valid locations the
    *                       surviving rentals reference, by id
    * @param counts         (rental_location_id, return_location_id, day, hour)
    *                       → surviving rentals; day and hour are
    *                       [[repro.core.TemporalGraphs.dayHour]], taken in
    *                       the session time zone when `clean` ran
    * @param table1         the row counts before and after cleaning (Table I)
    */
  final case class CleanData(raw: MobyData, stationPoints: Array[(Long, Double, Double)],
                             locationPoints: Array[(Long, Double, Double)],
                             counts: Map[(Long, Long, Int, Int), Long], table1: Report) {
    /** rentals before cleaning */
    def origRentals: Long = table1.origRentals

    /** The kept stations' raw rows, in their order, as a DataFrame built on first use. */
    lazy val stations: DataFrame = kept(raw.stationRows, stationPoints, StationSchema)

    /** The kept locations' raw rows, in their order, as a DataFrame built on first use. */
    lazy val locations: DataFrame = kept(raw.locationRows, locationPoints, LocationSchema)

    /** The surviving rentals, a lazy view for tests and callers that want
      * rows: the raw rentals whose two location ids are kept locations.
      * The pipeline reads `counts` instead.
      */
    lazy val rentals: DataFrame = {
      val valid = idSet(locationPoints)
      raw.spark.createDataFrame(raw.rentalRows.filter(survives(_, valid)), RentalSchema)
    }

    private def kept(rows: Seq[Row], points: Array[(Long, Double, Double)], schema: StructType) = {
      val ids = idSet(points)
      raw.spark.createDataFrame(rows.filter(r => ids.contains(r.getLong(0))).asJava, schema)
    }
  }

  final case class Report(origStations: Long, cleanStations: Long,
                          origRentals: Long, cleanRentals: Long,
                          origLocations: Long, cleanLocations: Long)

  private val RentalId = RentalSchema.fieldIndex("rental_id")
  private val Start = RentalSchema.fieldIndex("start_ts")
  private val From = RentalSchema.fieldIndex("rental_location_id")
  private val To = RentalSchema.fieldIndex("return_location_id")

  /** Rules 1–3: (id, lat, lon) of the `rows` of a table with `schema`, id
    * first, whose lat and lon are present, inside Dublin and on land, by id.
    */
  private def spatiallyValid(rows: Seq[Row], schema: StructType): Array[(Long, Double, Double)] = {
    val (lat, lon) = (schema.fieldIndex("lat"), schema.fieldIndex("lon"))
    rows.iterator
      .filter(r => !r.isNullAt(lat) && !r.isNullAt(lon) &&
        inDublin(r.getDouble(lat), r.getDouble(lon)) && onLand(r.getDouble(lat), r.getDouble(lon)))
      .map(r => (r.getLong(0), r.getDouble(lat), r.getDouble(lon)))
      .toArray.sortBy(_._1)
  }

  /** The ids of `points`, each mapped to false. */
  private def idSet(points: Array[(Long, Double, Double)]): mutable.LongMap[Boolean] = {
    val ids = new mutable.LongMap[Boolean](points.length)
    points.foreach(p => ids(p._1) = false)
    ids
  }

  /** Rules 4–5: both location ids of rental row `r` are present and in `valid`. */
  private def survives(r: Row, valid: mutable.LongMap[Boolean]): Boolean =
    !r.isNullAt(From) && !r.isNullAt(To) && valid.contains(r.getLong(From)) && valid.contains(r.getLong(To))

  /** Apply all six rules. Rules 1–3 run on the generated rows; the one
    * Spark job is [[groups]] over the raw rentals, which applies rules 4–5
    * with the valid location ids and writes no shuffle; rule 6 keeps the
    * valid locations that a counted rental references. Runs no query.
    */
  def clean(data: MobyData): CleanData = {
    val stations = spatiallyValid(data.stationRows, StationSchema)
    val validLocs = spatiallyValid(data.locationRows, LocationSchema)
    // valid location id -> referenced by a surviving rental; the tasks get
    // it unmarked, and the driver marks it after the job
    val referenced = idSet(validLocs)
    val zone = DateTimeUtils.getZoneId(data.spark.conf.get("spark.sql.session.timeZone"))
    val (origRentals, counts) = groups(data.rentalRows, referenced, zone)
    counts.keysIterator.foreach { case (a, b, _, _) => referenced(a) = true; referenced(b) = true }
    val locations = validLocs.filter(p => referenced(p._1))

    val table1 = Report(data.stationRows.size.toLong, stations.length.toLong, origRentals,
                        counts.valuesIterator.sum, data.locationRows.size.toLong, locations.length.toLong)
    CleanData(data, stations, locations, counts, table1)
  }

  /** Rules 4–5 and the count of the survivors, in one Spark job without a
    * shuffle: each partition folds its rentals that pass rules 4–5 against
    * `valid` into (rental_location_id, return_location_id, day, hour) → n,
    * day and hour the [[repro.core.TemporalGraphs.dayHour]] of start_ts in
    * `zone`, and counts every rental it reads. The driver merges the
    * partial counts. Returns (rentals read, merged counts). A surviving
    * rental without a start time fails the job, naming its id.
    */
  private[data] def groups(rentals: RDD[Row], valid: mutable.LongMap[Boolean],
                           zone: ZoneId): (Long, Map[(Long, Long, Int, Int), Long]) = {
    val partials = rentals.mapPartitions { rows =>
      val partial = mutable.HashMap.empty[(Long, Long, Int, Int), Long]
      var read = 0L
      while (rows.hasNext) {
        val r = rows.next()
        read += 1
        if (survives(r, valid)) {
          require(!r.isNullAt(Start), s"rental ${r.get(RentalId)} passes rules 1-5 but has no start_ts")
          val (day, hour) = TemporalGraphs.dayHour(r.getTimestamp(Start).toInstant, zone)
          val key = (r.getLong(From), r.getLong(To), day, hour)
          partial(key) = partial.getOrElse(key, 0L) + 1
        }
      }
      Iterator.single((read, partial))
    }.collect()
    val merged = mutable.HashMap.empty[(Long, Long, Int, Int), Long]
    for ((_, partial) <- partials; (key, n) <- partial) merged(key) = merged.getOrElse(key, 0L) + n
    (partials.iterator.map(_._1).sum, merged.toMap)
  }

  /** Original-vs-cleaned counts (the content of Table I), as `clean`
    * counted them: runs no query.
    */
  def report(@unused("perfbench/Harness.scala passes it") data: MobyData, cleaned: CleanData): Report =
    cleaned.table1
}

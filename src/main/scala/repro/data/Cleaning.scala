package repro.data

import java.time.ZoneId
import scala.annotation.unused
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.StructType
import repro.core.TemporalGraphs
import repro.core.TemporalGraphs.TripTable
import repro.geo.PointTable
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
  * the valid-id test `survives`: a binary search of the sorted valid ids.
  *
  * The rentals are read by one Spark-core job without a shuffle and
  * without a query: each partition keeps its rentals that pass rules 4–5
  * as a [[repro.core.TemporalGraphs.TripTable]] of (rental location,
  * return location, day and hour), and the driver concatenates the
  * partitions' tables ([[groups]]) and applies rule 6. The tasks get the
  * valid ids as one broadcast, so a task does not grow with the number of
  * locations.
  */
object Cleaning {

  /** @param raw            the generated tables `clean` read
    * @param stationPoints  the valid stations
    * @param locationPoints the valid locations the surviving rentals reference
    * @param tripTable      the surviving rentals, one trip each, from the
    *                       rental to the return location id; day and hour
    *                       are [[repro.core.TemporalGraphs.dayHour]] in the
    *                       configured zone (default UTC), `raw.zone`
    * @param table1         the row counts before and after cleaning (Table I)
    */
  final case class CleanData(raw: MobyData, stationPoints: PointTable, locationPoints: PointTable,
                             tripTable: TripTable, table1: Report) {
    /** rentals before cleaning */
    def origRentals: Long = table1.origRentals

    /** The kept stations' raw rows, in their order, as a DataFrame built on first use. */
    lazy val stations: DataFrame = kept(raw.stationRows, stationPoints, StationSchema)

    /** The kept locations' raw rows, in their order, as a DataFrame built on first use. */
    lazy val locations: DataFrame = kept(raw.locationRows, locationPoints, LocationSchema)

    /** The surviving rentals, a lazy view for tests and callers that want
      * rows: the raw rentals whose two location ids are kept locations.
      * The pipeline reads `tripTable` instead.
      */
    lazy val rentals: DataFrame = {
      val valid = locationPoints.ids
      raw.spark.createDataFrame(raw.rentalRows.filter(survives(_, valid)), RentalSchema)
    }

    private def kept(rows: Seq[Row], points: PointTable, schema: StructType) =
      raw.spark.createDataFrame(rows.filter(r => contains(points.ids, r.getLong(0))).asJava, schema)
  }

  final case class Report(origStations: Long, cleanStations: Long,
                          origRentals: Long, cleanRentals: Long,
                          origLocations: Long, cleanLocations: Long)

  private val RentalId = RentalSchema.fieldIndex("rental_id")
  private val Start = RentalSchema.fieldIndex("start_ts")
  private val From = RentalSchema.fieldIndex("rental_location_id")
  private val To = RentalSchema.fieldIndex("return_location_id")

  /** Rules 1–3: the points of the `rows` of a table with `schema`, id
    * first, whose lat and lon are present, inside Dublin and on land.
    */
  private def spatiallyValid(rows: Seq[Row], schema: StructType): PointTable = {
    val (lat, lon) = (schema.fieldIndex("lat"), schema.fieldIndex("lon"))
    PointTable.ofRows(rows.iterator
      .filter(r => !r.isNullAt(lat) && !r.isNullAt(lon) &&
        inDublin(r.getDouble(lat), r.getDouble(lon)) && onLand(r.getDouble(lat), r.getDouble(lon)))
      .toArray, lat, lon)
  }

  /** `id` is in the ascending `ids`. */
  private def contains(ids: Array[Long], id: Long): Boolean = java.util.Arrays.binarySearch(ids, id) >= 0

  /** Rules 4–5: both location ids of rental row `r` are present and in the ascending `valid`. */
  private def survives(r: Row, valid: Array[Long]): Boolean =
    !r.isNullAt(From) && !r.isNullAt(To) && contains(valid, r.getLong(From)) && contains(valid, r.getLong(To))

  /** Apply all six rules. Rules 1–3 run on the generated rows; the one
    * Spark job is [[groups]] over the raw rentals, which applies rules 4–5
    * with the valid location ids and writes no shuffle; rule 6 keeps the
    * valid locations that a surviving rental references. Day and hour are
    * read in `data.zone`. Runs no query.
    */
  def clean(data: MobyData): CleanData = {
    val stations = spatiallyValid(data.stationRows, StationSchema)
    val validLocs = spatiallyValid(data.locationRows, LocationSchema)
    val (origRentals, trips) = groups(data.rentalRows, validLocs.ids, data.zone)
    // rule 6: whether each valid location is referenced by a surviving rental
    val referenced = new Array[Boolean](validLocs.size)
    for (ids <- Seq(trips.from, trips.to); id <- ids)
      referenced(java.util.Arrays.binarySearch(validLocs.ids, id)) = true
    val locations = validLocs.subset(referenced(_))

    val table1 = Report(data.stationRows.size.toLong, stations.size.toLong, origRentals,
                        trips.size.toLong, data.locationRows.size.toLong, locations.size.toLong)
    CleanData(data, stations, locations, trips, table1)
  }

  /** Rules 4–5 in one Spark job without a shuffle: [[survivors]] with the
    * ascending `valid` ids broadcast. Returns (rentals read, the surviving
    * rentals' table), the partitions' tables concatenated in partition
    * order. A surviving rental without a start time fails the job, naming
    * its id.
    */
  private[data] def groups(rentals: RDD[Row], valid: Array[Long], zone: ZoneId): (Long, TripTable) = {
    val ids = rentals.sparkContext.broadcast(valid)
    val parts = try survivors(rentals, ids, zone).collect() finally ids.destroy()
    (parts.iterator.map(_._1).sum,
     TripTable(parts.flatMap(_._2.from), parts.flatMap(_._2.to), parts.flatMap(_._2.dayHour)))
  }

  /** The cleaning job's one stage: each partition keeps its rentals that
    * pass rules 4–5 against the ascending `valid` ids as a [[TripTable]]
    * from rental_location_id to return_location_id, day and hour the
    * [[repro.core.TemporalGraphs.dayHour]] of start_ts in `zone`, and
    * returns (the rentals it read, that table). A task result is
    * Java-serialized, and primitive arrays go in bulk.
    */
  private[data] def survivors(rentals: RDD[Row], valid: Broadcast[Array[Long]],
                              zone: ZoneId): RDD[(Long, TripTable)] =
    rentals.mapPartitions { rows =>
      val ids = valid.value
      val (from, to, dayHour) = (mutable.ArrayBuilder.make[Long], mutable.ArrayBuilder.make[Long],
                                 mutable.ArrayBuilder.make[Int])
      var read = 0L
      while (rows.hasNext) {
        val r = rows.next()
        read += 1
        if (survives(r, ids)) {
          require(!r.isNullAt(Start), s"rental ${r.get(RentalId)} passes rules 1-5 but has no start_ts")
          val (day, hour) = TemporalGraphs.dayHour(r.getTimestamp(Start).toInstant, zone)
          from += r.getLong(From); to += r.getLong(To); dayHour += day * 24 + hour
        }
      }
      Iterator.single((read, TripTable(from.result(), to.result(), dayHour.result())))
    }

  /** Original-vs-cleaned counts (the content of Table I), as `clean`
    * counted them: runs no query.
    */
  def report(@unused("perfbench/Harness.scala passes it") data: MobyData, cleaned: CleanData): Report =
    cleaned.table1
}

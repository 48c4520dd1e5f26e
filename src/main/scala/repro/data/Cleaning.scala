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
  * as primitive columns of (rental location, return location, day and
  * hour), each location the position `survives`' binary search finds it
  * at, and the driver concatenates the partitions' columns into one
  * [[repro.core.TemporalGraphs.TripTable]] ([[groups]]) and applies rule 6.
  * The tasks get the valid ids as one broadcast, so a task does not grow
  * with the number of locations.
  */
object Cleaning {

  /** @param raw            the generated tables `clean` read
    * @param stationPoints  the valid stations
    * @param locationPoints the valid locations the surviving rentals reference
    * @param tripTable      the surviving rentals, one trip each, from the
    *                       rental to the return location, over
    *                       `locationPoints.ids`; day and hour
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
      raw.spark.createDataFrame(rows.filter(position(_, 0, points.ids) >= 0).asJava, schema)
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

  /** The position of row `r`'s id in column `field` in the ascending
    * `valid`, or a negative number when the id is null or not there.
    */
  private def position(r: Row, field: Int, valid: Array[Long]): Int =
    if (r.isNullAt(field)) -1 else java.util.Arrays.binarySearch(valid, r.getLong(field))

  /** Rules 4–5: both location ids of rental row `r` are present and in the ascending `valid`. */
  private def survives(r: Row, valid: Array[Long]): Boolean =
    position(r, From, valid) >= 0 && position(r, To, valid) >= 0

  /** Apply all six rules. Rules 1–3 run on the generated rows; the one
    * Spark job is [[groups]] over the raw rentals, which applies rules 4–5
    * with the valid location ids and writes no shuffle; rule 6 keeps the
    * valid locations that a surviving rental references. Day and hour are
    * read in `data.zone`. Runs no query.
    */
  def clean(data: MobyData): CleanData = {
    val stations = spatiallyValid(data.stationRows, StationSchema)
    val validLocs = spatiallyValid(data.locationRows, LocationSchema)
    val (origRentals, surviving) = groups(data.rentalRows, validLocs.ids, data.zone)
    // rule 6: whether each valid location is referenced by a surviving
    // rental, and each referenced one's position among them, its rank
    val referenced = new Array[Boolean](validLocs.size)
    for (ks <- Seq(surviving.from, surviving.to); k <- ks) referenced(k) = true
    val locations = validLocs.subset(referenced(_))
    val rank = referenced.scanLeft(0)((r, kept) => if (kept) r + 1 else r)
    val trips = surviving.relabel(rank, locations.ids)

    val table1 = Report(data.stationRows.size.toLong, stations.size.toLong, origRentals,
                        trips.size.toLong, data.locationRows.size.toLong, locations.size.toLong)
    CleanData(data, stations, locations, trips, table1)
  }

  /** Rules 4–5 in one Spark job without a shuffle: [[survivors]] with the
    * ascending `valid` ids broadcast. Returns (rentals read, the surviving
    * rentals' table over `valid`), the partitions' columns concatenated in
    * partition order. A surviving rental without a start time fails the
    * job, naming its id.
    */
  private[data] def groups(rentals: RDD[Row], valid: Array[Long], zone: ZoneId): (Long, TripTable) = {
    val ids = rentals.sparkContext.broadcast(valid)
    val parts = try survivors(rentals, ids, zone).collect() finally ids.destroy()
    (parts.iterator.map(_._1).sum,
     TripTable(valid, parts.flatMap(_._2), parts.flatMap(_._3), parts.flatMap(_._4)))
  }

  /** The cleaning job's one stage: each partition keeps its rentals that
    * pass rules 4–5 against the ascending `valid` ids as the columns of a
    * [[TripTable]] over `valid`: the positions of rental_location_id and
    * return_location_id, and day and hour the
    * [[repro.core.TemporalGraphs.dayHour]] of start_ts in `zone`. Returns
    * (the rentals it read, from, to, dayHour). A task result is
    * Java-serialized, and primitive arrays go in bulk.
    */
  private[data] def survivors(rentals: RDD[Row], valid: Broadcast[Array[Long]],
                              zone: ZoneId): RDD[(Long, Array[Int], Array[Int], Array[Int])] =
    rentals.mapPartitions { rows =>
      val ids = valid.value
      val (from, to, dayHour) = (mutable.ArrayBuilder.make[Int], mutable.ArrayBuilder.make[Int],
                                 mutable.ArrayBuilder.make[Int])
      var read = 0L
      while (rows.hasNext) {
        val r = rows.next()
        read += 1
        val f = position(r, From, ids)
        val t = if (f >= 0) position(r, To, ids) else -1
        if (t >= 0) {
          require(!r.isNullAt(Start), s"rental ${r.get(RentalId)} passes rules 1-5 but has no start_ts")
          val (day, hour) = TemporalGraphs.dayHour(r.getTimestamp(Start).toInstant, zone)
          from += f; to += t; dayHour += day * 24 + hour
        }
      }
      Iterator.single((read, from.result(), to.result(), dayHour.result()))
    }

  /** Original-vs-cleaned counts (the content of Table I), as `clean`
    * counted them: runs no query.
    */
  def report(@unused("perfbench/Harness.scala passes it") data: MobyData, cleaned: CleanData): Report =
    cleaned.table1
}

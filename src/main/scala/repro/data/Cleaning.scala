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
  * as (rental location, return location, day, hour), and the driver
  * counts them ([[groups]]) and applies rule 6. The tasks get the valid
  * ids as one broadcast, so a task does not grow with the number of
  * locations.
  */
object Cleaning {

  /** @param raw            the generated tables `clean` read
    * @param stationPoints  (station_id, lat, lon) of the valid stations, by id
    * @param locationPoints (location_id, lat, lon) of the valid locations the
    *                       surviving rentals reference, by id
    * @param counts         (rental_location_id, return_location_id, day, hour)
    *                       → surviving rentals; day and hour are
    *                       [[repro.core.TemporalGraphs.dayHour]] in the
    *                       configured zone (default UTC), `raw.zone`
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
      val valid = locationPoints.map(_._1)
      raw.spark.createDataFrame(raw.rentalRows.filter(survives(_, valid)), RentalSchema)
    }

    private def kept(rows: Seq[Row], points: Array[(Long, Double, Double)], schema: StructType) = {
      val ids = points.map(_._1)
      raw.spark.createDataFrame(rows.filter(r => contains(ids, r.getLong(0))).asJava, schema)
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

  /** `id` is in the ascending `ids`. */
  private def contains(ids: Array[Long], id: Long): Boolean = java.util.Arrays.binarySearch(ids, id) >= 0

  /** Rules 4–5: both location ids of rental row `r` are present and in the ascending `valid`. */
  private def survives(r: Row, valid: Array[Long]): Boolean =
    !r.isNullAt(From) && !r.isNullAt(To) && contains(valid, r.getLong(From)) && contains(valid, r.getLong(To))

  /** Apply all six rules. Rules 1–3 run on the generated rows; the one
    * Spark job is [[groups]] over the raw rentals, which applies rules 4–5
    * with the valid location ids and writes no shuffle; rule 6 keeps the
    * valid locations that a counted rental references. Day and hour are
    * read in `data.zone`. Runs no query.
    */
  def clean(data: MobyData): CleanData = {
    val stations = spatiallyValid(data.stationRows, StationSchema)
    val validLocs = spatiallyValid(data.locationRows, LocationSchema)
    val validIds = validLocs.map(_._1)
    val (origRentals, counts) = groups(data.rentalRows, validIds, data.zone)
    // rule 6: whether each valid location is referenced by a counted rental
    val referenced = new Array[Boolean](validIds.length)
    counts.keysIterator.foreach { case (a, b, _, _) =>
      referenced(java.util.Arrays.binarySearch(validIds, a)) = true
      referenced(java.util.Arrays.binarySearch(validIds, b)) = true
    }
    val locations = validLocs.zip(referenced).collect { case (p, true) => p }

    val table1 = Report(data.stationRows.size.toLong, stations.length.toLong, origRentals,
                        counts.valuesIterator.sum, data.locationRows.size.toLong, locations.length.toLong)
    CleanData(data, stations, locations, counts, table1)
  }

  /** Rules 4–5 and the count of the survivors, in one Spark job without a
    * shuffle: [[survivors]] with the ascending `valid` ids broadcast. The
    * driver counts the surviving rentals per key. Returns (rentals read,
    * counts). A surviving rental without a start time fails the job,
    * naming its id.
    */
  private[data] def groups(rentals: RDD[Row], valid: Array[Long],
                           zone: ZoneId): (Long, Map[(Long, Long, Int, Int), Long]) = {
    val ids = rentals.sparkContext.broadcast(valid)
    val parts = try survivors(rentals, ids, zone).collect() finally ids.destroy()
    val counts = mutable.HashMap.empty[(Long, Long, Int, Int), Long]
    for (p <- parts; i <- p.from.indices) {
      val key = (p.from(i), p.to(i), p.dayHour(i) / 24, p.dayHour(i) % 24)
      counts(key) = counts.getOrElse(key, 0L) + 1
    }
    (parts.iterator.map(_.read).sum, counts.toMap)
  }

  /** One partition's share of [[groups]]: the rentals it read, and each
    * rental it kept as (from(i), to(i), dayHour(i) / 24, dayHour(i) % 24)
    * in parallel primitive arrays. The tasks do not count: on the generated
    * data almost every kept rental has a key of its own (15,462 keys for
    * 15,468 rentals at sf=0.25). A task result is Java-serialized, and
    * primitive arrays go in bulk.
    */
  private[data] final class Survivors(val read: Long, val from: Array[Long], val to: Array[Long],
                                      val dayHour: Array[Int]) extends Serializable

  /** The cleaning job's one stage: each partition keeps its rentals that
    * pass rules 4–5 against the ascending `valid` ids as
    * (rental_location_id, return_location_id, day, hour), day and hour the
    * [[repro.core.TemporalGraphs.dayHour]] of start_ts in `zone`, counts
    * every rental it reads and returns one [[Survivors]].
    */
  private[data] def survivors(rentals: RDD[Row], valid: Broadcast[Array[Long]],
                              zone: ZoneId): RDD[Survivors] =
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
      Iterator.single(new Survivors(read, from.result(), to.result(), dayHour.result()))
    }

  /** Original-vs-cleaned counts (the content of Table I), as `clean`
    * counted them: runs no query.
    */
  def report(@unused("perfbench/Harness.scala passes it") data: MobyData, cleaned: CleanData): Report =
    cleaned.table1
}

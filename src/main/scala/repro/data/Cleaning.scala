package repro.data

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.TemporalGraphs.{sliceCol, TDay, THour}
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
  * drops 95 → 92 stations.
  *
  * The rentals are read by one Spark job without a shuffle: each partition
  * counts its rentals per (rental location, return location, day, hour)
  * and the driver merges the partial counts ([[groups]]). Rules 4–6 run on
  * the driver over the merged groups and the collected locations.
  */
object Cleaning {

  /** @param stations     the valid stations
    * @param locations    the valid locations the surviving rentals reference,
    *                     a local relation
    * @param rentals      the surviving rentals: a lazy view over the raw
    *                     rentals (two semi-joins) for tests and callers that
    *                     want rows; the pipeline reads `counts` instead
    * @param counts       (rental_location_id, return_location_id, day, hour)
    *                     → surviving rentals; day and hour are
    *                     [[repro.core.TemporalGraphs.sliceCol]]s, taken in the
    *                     session time zone when `clean` ran
    * @param origRentals  rentals before cleaning
    */
  final case class CleanData(stations: DataFrame, locations: DataFrame, rentals: DataFrame,
                             counts: Map[(Long, Long, Int, Int), Long], origRentals: Long)

  final case class Report(origStations: Long, cleanStations: Long,
                          origRentals: Long, cleanRentals: Long,
                          origLocations: Long, cleanLocations: Long)

  /** Spatial validity of a coordinate pair as a Catalyst predicate. */
  def validCoords(lat: Column, lon: Column): Column = {
    val inDublin = lat.isNotNull && lon.isNotNull &&
      lat >= DublinLatMin && lat <= DublinLatMax && lon >= DublinLonMin && lon <= DublinLonMax
    val atSea = lon > SeaLonMin && lat > SeaLatMin && lat < SeaLatMax
    inDublin && !atSea
  }

  /** Apply all six rules. The one Spark job is [[groups]] over the raw
    * rentals, and it writes no shuffle; the generated tables are local
    * relations, so collecting the locations starts none.
    */
  def clean(data: MobyData): CleanData = {
    val stations = data.stations.filter(validCoords(col("lat"), col("lon")))

    // rules 1-3: spatially valid locations only
    val validLoc = data.locations.filter(validCoords(col("lat"), col("lon")))
      .select("location_id", "lat", "lon")
    val validRows = validLoc.collect()
    val valid = validRows.iterator.map(_.getLong(0)).toSet

    // rentals per location pair, day and hour; a missing id stays a key
    val rentalGroups = groups(data.rentals)

    // rules 4-5: both endpoint ids present and valid locations
    val counts = rentalGroups.iterator.collect {
      case (r, n) if !r.isNullAt(0) && !r.isNullAt(1) && valid(r.getLong(0)) && valid(r.getLong(1)) =>
        (r.getLong(0), r.getLong(1), r.getInt(2), r.getInt(3)) -> n
    }.toMap

    // rule 6: drop locations no surviving rental references
    val referenced = counts.keysIterator.flatMap { case (a, b, _, _) => Iterator(a, b) }.toSet
    val locations = data.locations.sparkSession.createDataFrame(
      validRows.filter(r => referenced(r.getLong(0))).toSeq.asJava, validLoc.schema)

    val locIds = validLoc.select(col("location_id"))
    val rentals = data.rentals
      .filter(col("rental_location_id").isNotNull && col("return_location_id").isNotNull)
      .join(locIds.withColumnRenamed("location_id", "rental_location_id"), Seq("rental_location_id"), "left_semi")
      .join(locIds.withColumnRenamed("location_id", "return_location_id"), Seq("return_location_id"), "left_semi")
      .select("rental_id", "bike_id", "start_ts", "end_ts", "rental_location_id", "return_location_id")

    CleanData(stations, locations, rentals, counts, origRentals = rentalGroups.values.sum)
  }

  /** Rentals per (rental_location_id, return_location_id, day, hour), each
    * key a `Row` of those four values, day and hour the
    * [[repro.core.TemporalGraphs.sliceCol]]s under the session time zone.
    * A `Row` equals another with the same values, nulls included, so the
    * keys are the groups of `groupBy(...).count()`. One Spark job without
    * a shuffle: each partition folds its rows into a local map, and the
    * driver merges the collected partial counts.
    */
  private[data] def groups(rentals: DataFrame): Map[Row, Long] = {
    val ts = col("start_ts")
    rentals
      .select(col("rental_location_id"), col("return_location_id"), sliceCol(TDay, ts), sliceCol(THour, ts))
      .rdd.mapPartitions { rows =>
        val partial = mutable.HashMap.empty[Row, Long]
        rows.foreach(r => partial(r) = partial.getOrElse(r, 0L) + 1)
        partial.iterator
      }
      .collect().groupMapReduce(_._1)(_._2)(_ + _)
  }

  /** Original-vs-cleaned counts (the content of Table I): the rentals from
    * `clean`'s counts, the stations and locations from collecting their
    * local relations. Starts no Spark job on generated data.
    */
  def report(data: MobyData, cleaned: CleanData): Report =
    Report(origStations = data.stations.collect().length.toLong,
           cleanStations = cleaned.stations.collect().length.toLong,
           origRentals = cleaned.origRentals, cleanRentals = cleaned.counts.values.sum,
           origLocations = data.locations.collect().length.toLong,
           cleanLocations = cleaned.locations.collect().length.toLong)
}

package repro.data

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
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
  */
object Cleaning {

  final case class CleanData(stations: DataFrame, locations: DataFrame, rentals: DataFrame)

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

  /** Apply all six rules; pure DataFrame transform. */
  def clean(data: MobyData): CleanData = {
    val stations = data.stations.filter(validCoords(col("lat"), col("lon")))

    // rules 1-3: spatially valid locations only
    val validLoc = data.locations.filter(validCoords(col("lat"), col("lon")))

    // rules 4-5: both endpoints present and resolvable to a valid location.
    // Eager localCheckpoint: rule 6 reads the surviving rentals, and every
    // later stage fans out from them, so they are computed once, here.
    val locIds = validLoc.select(col("location_id"))
    val rentals = data.rentals
      .filter(col("rental_location_id").isNotNull && col("return_location_id").isNotNull)
      .join(locIds.withColumnRenamed("location_id", "rental_location_id"), Seq("rental_location_id"), "left_semi")
      .join(locIds.withColumnRenamed("location_id", "return_location_id"), Seq("return_location_id"), "left_semi")
      .select("rental_id", "bike_id", "start_ts", "end_ts", "rental_location_id", "return_location_id")
      .localCheckpoint(true)

    // rule 6: drop locations no surviving rental references (a semi-join
    // keeps each location once, so the referenced ids need no distinct)
    val referenced = rentals.select(col("rental_location_id") as "location_id")
      .union(rentals.select(col("return_location_id") as "location_id"))
    val locations = validLoc.join(referenced, Seq("location_id"), "left_semi")

    // stations and locations are checkpointed too: every later stage reads them
    CleanData(stations.localCheckpoint(true),
              locations.select("location_id", "lat", "lon").localCheckpoint(true),
              rentals)
  }

  /** Original-vs-cleaned counts (the content of Table I), from one
    * aggregate over the six tables tagged 0–5.
    */
  def report(data: MobyData, cleaned: CleanData): Report = {
    val tables = Seq(data.stations, cleaned.stations, data.rentals, cleaned.rentals,
                     data.locations, cleaned.locations)
    val n = tables.zipWithIndex.map { case (t, tag) => t.select(lit(tag) as "tag") }
      .reduce(_ union _)
      .groupBy(col("tag")).count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap.withDefaultValue(0L)
    Report(origStations = n(0), cleanStations = n(1), origRentals = n(2),
           cleanRentals = n(3), origLocations = n(4), cleanLocations = n(5))
  }
}

package repro.data

import java.time.{ZoneId, ZoneOffset}
import scala.jdk.CollectionConverters._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Schemas and geography constants for the synthetic Moby Bikes dataset.
  *
  * The paper's data are two SQL tables, Rental and Location, plus a set of
  * fixed charging stations. We model Dublin as six overlapping circular
  * regions grouped into three "blocks" (the spatial super-communities the
  * paper's G_Basic Louvain recovers: southside / suburbs / centre+north).
  * Each region has a dominant temporal archetype that drives day-of-week
  * and hour-of-day trip distributions.
  */
object MobySchema {

  /** Temporal behaviour archetypes (drive G_Day / G_Hour community splits). */
  object Archetype {
    val Centre   = "centre"   // broad daytime use, weekday-tilted
    val Commuter = "commuter" // AM/PM weekday peaks
    val Leisure  = "leisure"  // weekend + midday peaks
    val All: Seq[String] = Seq(Centre, Commuter, Leisure)
  }

  /** One synthetic Dublin region.
    *
    * @param code          short region code
    * @param block         spatial super-community ("central"/"south"/"suburb")
    * @param archetype     dominant temporal archetype of the region
    * @param lat,lon       region centre (decimal degrees)
    * @param radiusM       region radius in metres (anchors laid out inside)
    * @param stationW      weight for apportioning fixed stations
    * @param hotspotW      weight for apportioning candidate hotspots
    */
  final case class Region(code: String, block: String, archetype: String,
                          lat: Double, lon: Double, radiusM: Double,
                          stationW: Int, hotspotW: Int)

  /** Six regions; weights reproduce the paper's 92 stations and ~1,080
    * candidate clusters at sf=1. All circles sit inside the Dublin bounding
    * box and west of the synthetic "Dublin Bay" sea polygon.
    */
  val Regions: Seq[Region] = Seq(
    Region("CC", "central", Archetype.Centre,   53.347, -6.260, 1200, 30, 300),
    Region("NS", "central", Archetype.Commuter, 53.370, -6.265, 1400, 14, 180),
    Region("SS", "south",   Archetype.Commuter, 53.326, -6.256, 1300, 18, 200),
    Region("DL", "south",   Archetype.Leisure,  53.290, -6.145,  700, 10, 100),
    Region("PP", "suburb",  Archetype.Leisure,  53.356, -6.330, 1000,  6,  80),
    Region("SW", "suburb",  Archetype.Commuter, 53.345, -6.390, 1500, 14, 220),
  )

  val Blocks: Seq[String] = Seq("central", "south", "suburb")

  /** Dublin bounding box used by the cleaning rule "locations outside
    * Dublin". Synthetic out-of-city dirty rows are placed outside it.
    */
  val DublinLatMin = 53.20
  val DublinLatMax = 53.46
  val DublinLonMin = -6.50
  val DublinLonMax = -6.06

  /** Crude Dublin Bay polygon for the "locations not on land" rule: a
    * rectangle of open water east of the coastline. All synthetic good
    * regions are placed strictly west of it.
    */
  val SeaLonMin = -6.12
  val SeaLatMin = 53.285
  val SeaLatMax = 53.36

  def inDublin(lat: Double, lon: Double): Boolean =
    lat >= DublinLatMin && lat <= DublinLatMax && lon >= DublinLonMin && lon <= DublinLonMax

  def onLand(lat: Double, lon: Double): Boolean =
    !(lon > SeaLonMin && lat > SeaLatMin && lat < SeaLatMax)

  private def id(name: String) = StructField(name, LongType, nullable = false)
  private val LatLon = Seq(StructField("lat", DoubleType), StructField("lon", DoubleType))

  /** station_id, station_name, lat, lon */
  val StationSchema: StructType =
    StructType(id("station_id") +: StructField("station_name", StringType) +: LatLon)

  /** location_id, lat, lon */
  val LocationSchema: StructType = StructType(id("location_id") +: LatLon)

  /** rental_id, bike_id, start_ts, end_ts, rental_location_id, return_location_id */
  val RentalSchema: StructType = StructType(Seq(
    id("rental_id"), StructField("bike_id", IntegerType),
    StructField("start_ts", TimestampType), StructField("end_ts", TimestampType),
    StructField("rental_location_id", LongType), StructField("return_location_id", LongType)))

  /** location_id, cls ("station"/"hotspot"), anchor_idx, region, block, archetype */
  val LocationMetaSchema: StructType = StructType(Seq(
    id("location_id"), StructField("cls", StringType, nullable = false), id("anchor_idx"),
    StructField("region", StringType), StructField("block", StringType),
    StructField("archetype", StringType)))

  /** The zone the trips' days and hours are laid out and read in unless
    * one is given: UTC has no DST, so each trip's hour slice is the hour
    * the generator drew.
    */
  val DefaultZone: ZoneId = ZoneOffset.UTC

  /** Generated dataset bundle: the stations, locations and location meta
    * as rows on the driver, the rentals as an RDD of rows. Each table
    * also reads as a DataFrame with its schema's columns, built on first
    * use; the pipeline reads the rows.
    *
    * @param stationRows  [[StationSchema]] rows, dirty rows included
    * @param locationRows [[LocationSchema]] rows, dirty rows included
    * @param rentalRows   [[RentalSchema]] rows, dirty rows included
    * @param metaRows     generator-internal ground truth for tests, as
    *                     [[LocationMetaSchema]] rows (good locations only)
    * @param zone         the zone the trips' days and hours are read in
    */
  final case class MobyData(spark: SparkSession, stationRows: Seq[Row], locationRows: Seq[Row],
                            rentalRows: RDD[Row], metaRows: Seq[Row], zone: ZoneId = DefaultZone) {
    lazy val stations: DataFrame = spark.createDataFrame(stationRows.asJava, StationSchema)
    lazy val locations: DataFrame = spark.createDataFrame(locationRows.asJava, LocationSchema)
    lazy val rentals: DataFrame = spark.createDataFrame(rentalRows, RentalSchema)
    lazy val locationMeta: DataFrame = spark.createDataFrame(metaRows.asJava, LocationMetaSchema)
  }

  /** Row-count calibration: at sf=1 these reproduce the paper's Table I
    * exactly (95→92 stations, 14,239→14,156 locations, 62,324→61,872
    * rentals). Every dirty row fails exactly one cleaning rule, so cleaned
    * counts are exact at any sf.
    */
  final case class MobyCounts(sf: Double) {
    private def sc(base: Long, min: Long = 1): Long =
      math.max(min, math.round(base * sf))

    val goodStations: Long = sc(92, 6)
    val badStations: Long  = 3 // fixed: one out-of-Dublin, one at sea, one null-coord

    val hotspots: Long = sc(1080, Regions.size.toLong)

    val goodLocations: Long    = math.max(goodStations * 4, sc(14156))
    val stationLocations: Long = math.round(goodLocations * 0.70)
    val hotspotLocations: Long = goodLocations - stationLocations

    val orphanLocations: Long   = sc(20)
    val outsideLocations: Long  = sc(25)
    val seaLocations: Long      = sc(20)
    val noCoordLocations: Long  = sc(18)
    val badLocations: Long = orphanLocations + outsideLocations + seaLocations + noCoordLocations

    val goodRentals: Long = math.max(goodLocations, sc(61872))
    val outsideRentals: Long  = sc(120)
    val seaRentals: Long      = sc(100)
    val noCoordRentals: Long  = sc(80)
    val missingIdRentals: Long = sc(80)
    val danglingRentals: Long  = sc(72)
    val badRentals: Long =
      outsideRentals + seaRentals + noCoordRentals + missingIdRentals + danglingRentals

    val totalStations: Long  = goodStations + badStations
    val totalLocations: Long = goodLocations + badLocations
    val totalRentals: Long   = goodRentals + badRentals

    // location id layout: [0, good) | orphan | outside | sea | noCoord
    val orphanLocBase: Long  = goodLocations
    val outsideLocBase: Long = orphanLocBase + orphanLocations
    val seaLocBase: Long     = outsideLocBase + outsideLocations
    val noCoordLocBase: Long = seaLocBase + seaLocations
  }
}

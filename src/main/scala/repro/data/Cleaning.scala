package repro.data

import scala.annotation.unused
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
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
  * drops 95 → 92 stations. Rules 1–3 have one encoding, `MobySchema.inDublin`
  * and `onLand` on the collected rows (`spatiallyValid`).
  *
  * The rentals are read by one Spark job without a shuffle: each partition
  * counts its rentals per (rental location, return location, day, hour)
  * and the driver merges the partial counts ([[groups]]). Rules 4–6 run on
  * the driver in one pass over the merged groups.
  */
object Cleaning {

  /** @param stations     the valid stations, a local relation
    * @param locations    the valid locations the surviving rentals reference,
    *                     a local relation
    * @param rentals      the surviving rentals: a lazy view over the raw
    *                     rentals (two semi-joins) for tests and callers that
    *                     want rows; the pipeline reads `counts` instead
    * @param counts       (rental_location_id, return_location_id, day, hour)
    *                     → surviving rentals; day and hour are
    *                     [[repro.core.TemporalGraphs.sliceCol]]s, taken in the
    *                     session time zone when `clean` ran
    * @param table1       the row counts before and after cleaning (Table I)
    */
  final case class CleanData(stations: DataFrame, locations: DataFrame, rentals: DataFrame,
                             counts: Map[(Long, Long, Int, Int), Long], table1: Report) {
    /** rentals before cleaning */
    def origRentals: Long = table1.origRentals
  }

  final case class Report(origStations: Long, cleanStations: Long,
                          origRentals: Long, cleanRentals: Long,
                          origLocations: Long, cleanLocations: Long)

  /** Rules 1–3: the `rows` of a table with `schema` whose lat and lon are
    * present, inside Dublin and on land, in their order.
    */
  private def spatiallyValid(rows: Array[Row], schema: StructType): Array[Row] = {
    val (lat, lon) = (schema.fieldIndex("lat"), schema.fieldIndex("lon"))
    rows.filter(r => !r.isNullAt(lat) && !r.isNullAt(lon) &&
      inDublin(r.getDouble(lat), r.getDouble(lon)) && onLand(r.getDouble(lat), r.getDouble(lon)))
  }

  /** Apply all six rules. The one Spark job is [[groups]] over the raw
    * rentals, and it writes no shuffle; the generated stations and
    * locations are local relations, so collecting them starts none.
    */
  def clean(data: MobyData): CleanData = {
    val spark = data.locations.sparkSession
    def local(rows: Seq[Row], like: DataFrame) = spark.createDataFrame(rows.asJava, like.schema)
    val rawStations = data.stations.collect()
    val rawLocations = data.locations.collect()
    val stations = spatiallyValid(rawStations, data.stations.schema)
    val validLocs = spatiallyValid(rawLocations, data.locations.schema)
    val locId = data.locations.schema.fieldIndex("location_id")

    // rules 4-6 in one pass over the merged groups: keep the keys whose
    // endpoint ids are present and spatially valid, and mark those ids
    val referenced = mutable.LongMap.empty[Boolean] // valid location id -> referenced
    validLocs.foreach(r => referenced(r.getLong(locId)) = false)
    def valid(r: Row, i: Int) = !r.isNullAt(i) && referenced.contains(r.getLong(i))
    val counts = Map.newBuilder[(Long, Long, Int, Int), Long]
    var origRentals, cleanRentals = 0L
    val it = groups(data.rentals).iterator
    while (it.hasNext) {
      val (r, n) = it.next()
      origRentals += n
      if (valid(r, 0) && valid(r, 1)) {
        val (a, b) = (r.getLong(0), r.getLong(1))
        counts += (a, b, r.getInt(2), r.getInt(3)) -> n
        cleanRentals += n
        referenced(a) = true
        referenced(b) = true
      }
    }
    val locations = validLocs.filter(r => referenced(r.getLong(locId)))

    val locIds = local(validLocs.toSeq, data.locations).select(col("location_id"))
    val rentals = data.rentals
      .filter(col("rental_location_id").isNotNull && col("return_location_id").isNotNull)
      .join(locIds.withColumnRenamed("location_id", "rental_location_id"), Seq("rental_location_id"), "left_semi")
      .join(locIds.withColumnRenamed("location_id", "return_location_id"), Seq("return_location_id"), "left_semi")
      .select("rental_id", "bike_id", "start_ts", "end_ts", "rental_location_id", "return_location_id")

    val table1 = Report(rawStations.length.toLong, stations.length.toLong, origRentals, cleanRentals,
                        rawLocations.length.toLong, locations.length.toLong)
    CleanData(local(stations.toSeq, data.stations), local(locations.toSeq, data.locations),
              rentals, counts.result(), table1)
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

  /** Original-vs-cleaned counts (the content of Table I), as `clean`
    * counted them: runs no query.
    */
  def report(@unused("perfbench/Harness.scala passes it") data: MobyData, cleaned: CleanData): Report =
    cleaned.table1
}

package repro.cluster

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, LongType}
import repro.geo.Haversine

/** Grid blocking for neighbour-pair generation, on the driver.
  *
  * Points are bucketed into cells of `thresholdM` / R radians of latitude
  * and of the widest longitude span a pair within `thresholdM` can have at
  * the input's largest |lat|. Any two points within `thresholdM` of each
  * other therefore land in the same or adjacent cells, so probing each
  * point's 3×3 cell neighbourhood finds every true pair, and the Haversine
  * filter on the probed ones is exact. This keeps pair generation
  * O(n · density) instead of O(n²).
  */
object SpatialGrid {

  /** All pairs (i, j, metres) with i < j of the points (lats(k), lons(k))
    * whose Haversine distance is <= thresholdM.
    */
  def pairs(lats: Array[Double], lons: Array[Double], thresholdM: Double): Array[(Int, Int, Double)] = {
    val maxAbsLat = lats.foldLeft(0.0)((m, la) => math.max(m, math.abs(la)))
    // Haversine: sin²(d/2R) = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2), so a pair
    // within thresholdM has Δφ ≤ thresholdM/R and
    // sin(Δλ/2) ≤ sin(thresholdM/2R) / cos(maxAbsLat)
    val cellLat = math.toDegrees(thresholdM / Haversine.EarthRadiusM)
    val sinHalfLon = math.sin(thresholdM / (2 * Haversine.EarthRadiusM)) /
      math.cos(math.toRadians(maxAbsLat))
    val cellLon = math.toDegrees(2 * math.asin(math.min(1.0, sinHalfLon)))

    def cell(k: Int) = (math.floor(lats(k) / cellLat).toLong, math.floor(lons(k) / cellLon).toLong)
    val cells = mutable.HashMap.empty[(Long, Long), mutable.ArrayBuffer[Int]]
    for (k <- lats.indices) cells.getOrElseUpdate(cell(k), mutable.ArrayBuffer.empty) += k

    // each point probes its own cell and the 8 surrounding ones
    val out = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    for (i <- lats.indices; (cy, cx) = cell(i); dy <- -1 to 1; dx <- -1 to 1;
         j <- cells.getOrElse((cy + dy, cx + dx), Nil) if i < j) {
      val d = Haversine.metres(lats(i), lons(i), lats(j), lons(j))
      if (d <= thresholdM) out += ((i, j, d))
    }
    out.toArray
  }

  /** The (id, lat, lon) rows of `table`, with the id in column `id`,
    * collected and sorted by id.
    */
  def collectSorted(table: DataFrame, id: String): Array[(Long, Double, Double)] =
    table.select(col(id).cast(LongType), col("lat").cast(DoubleType), col("lon").cast(DoubleType))
      .collect().map(r => (r.getLong(0), r.getDouble(1), r.getDouble(2))).sortBy(_._1)

  /** [[pairs]] of `points` (id, lat, lon) as id_a < id_b, dist_m. */
  def neighbourPairs(spark: SparkSession, points: DataFrame, thresholdM: Double): DataFrame = {
    import spark.implicits._
    val (ids, lats, lons) = collectSorted(points, "id").unzip3
    pairs(lats, lons, thresholdM).toSeq.map { case (i, j, d) => (ids(i), ids(j), d) }
      .toDF("id_a", "id_b", "dist_m")
  }
}

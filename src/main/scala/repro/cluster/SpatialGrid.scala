package repro.cluster

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.geo.Haversine

/** Grid blocking for neighbour-pair generation.
  *
  * Points are bucketed into cells of `thresholdM` / R radians of latitude
  * and of the widest longitude span a pair within `thresholdM` can have at
  * the input's largest |lat|. Any two points within `thresholdM` of each
  * other therefore land in the same or adjacent cells, so emitting each
  * point into its 3×3 cell neighbourhood and joining on cell id yields a
  * superset of the true neighbour pairs, which a final Haversine filter
  * trims exactly. This keeps HAC pair generation O(n · density) instead
  * of the O(n²) cross join.
  */
object SpatialGrid {

  /** All unordered pairs (id_a < id_b) of `points` (id, lat, lon) whose
    * Haversine distance is <= thresholdM. Output: id_a, id_b, dist_m.
    */
  def neighbourPairs(spark: SparkSession, points: DataFrame, thresholdM: Double): DataFrame = {
    import spark.implicits._
    val maxAbsLat = points.agg(coalesce(max(abs($"lat")), lit(0.0))).as[Double].head()
    // Haversine: sin²(d/2R) = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2), so a pair
    // within thresholdM has Δφ ≤ thresholdM/R and
    // sin(Δλ/2) ≤ sin(thresholdM/2R) / cos(maxAbsLat)
    val cellLat = math.toDegrees(thresholdM / Haversine.EarthRadiusM)
    val sinHalfLon = math.sin(thresholdM / (2 * Haversine.EarthRadiusM)) /
      math.cos(math.toRadians(maxAbsLat))
    val cellLon = math.toDegrees(2 * math.asin(math.min(1.0, sinHalfLon)))

    val cells = points.select(
      $"id", $"lat", $"lon",
      floor($"lat" / cellLat).cast("long") as "cy",
      floor($"lon" / cellLon).cast("long") as "cx")

    // each point probes its own cell and the 8 surrounding ones
    val offsets = Seq.tabulate(9)(i => (i / 3 - 1, i % 3 - 1))
    val probes = cells.select(
      $"id", $"lat", $"lon",
      explode(array(offsets.map { case (dy, dx) =>
        struct(($"cy" + dy) as "cy", ($"cx" + dx) as "cx")
      }: _*)) as "cell")
      .select($"id" as "id_a", $"lat" as "lat_a", $"lon" as "lon_a",
              $"cell.cy" as "cy", $"cell.cx" as "cx")

    probes.join(
        cells.select($"id" as "id_b", $"lat" as "lat_b", $"lon" as "lon_b", $"cy", $"cx"),
        Seq("cy", "cx"))
      .filter($"id_a" < $"id_b")
      .withColumn("dist_m",
        Haversine.metresCol($"lat_a", $"lon_a", $"lat_b", $"lon_b"))
      .filter($"dist_m" <= thresholdM)
      .select("id_a", "id_b", "dist_m")
  }
}

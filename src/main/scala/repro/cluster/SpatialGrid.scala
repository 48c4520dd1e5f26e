package repro.cluster

import java.util.Arrays

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{DoubleType, LongType}
import repro.geo.{Haversine, PointTable}

/** Grid blocking for neighbour-pair generation, on the driver.
  *
  * Points are bucketed into cells of `thresholdM` / R radians of latitude
  * and of the widest longitude span a pair within `thresholdM` can have at
  * the input's largest |lat|. Any two points within `thresholdM` of each
  * other therefore land in the same or adjacent cells, so probing each
  * point's 3×3 cell neighbourhood finds every true pair, and the Haversine
  * filter on the probed ones is exact. This keeps pair generation
  * O(n · density) instead of O(n²).
  *
  * Everything is held in primitive arrays: the points are sorted once by a
  * packed `Long` cell key, and the pairs come out as CSR neighbour lists.
  */
object SpatialGrid {

  /** Neighbour lists in CSR form (compressed sparse rows) over points
    * 0 until n: row k is `nbr` and `metres` from `offsets(k)` until
    * `offsets(k + 1)`. Every pair is listed in both rows, and each row is
    * in ascending neighbour order.
    */
  final case class Neighbours(offsets: Array[Int], nbr: Array[Int], metres: Array[Double]) {
    def n: Int = offsets.length - 1

    /** The pairs (i, j, metres) with i < j, by i and then j. */
    def upperPairs: Iterator[(Int, Int, Double)] =
      for (i <- Iterator.range(0, n); e <- Iterator.range(offsets(i), offsets(i + 1)) if nbr(e) > i)
        yield (i, nbr(e), metres(e))
  }

  /** Most pairs CSR lists can hold: each pair is two entries, and the
    * offsets are `Int`.
    */
  private[cluster] val MaxPairs: Long = Int.MaxValue / 2

  /** Fails unless `pairs` pairs fit CSR lists with `Int` offsets. */
  private[cluster] def requireFits(pairs: Long, thresholdM: Double, n: Int): Unit =
    require(pairs <= MaxPairs,
      s"$pairs pairs within $thresholdM m among $n points exceed the $MaxPairs that " +
        "neighbour lists with Int offsets can hold (two entries per pair)")

  /** Least cell side in degrees (about 1 cm): below it a tiny or zero
    * threshold would overflow the packed cell key. Larger cells stay exact.
    */
  private val MinCellDeg = 1e-7
  private val YBias = 1L << 30
  private val XBias = 1L << 31

  /** The pairs of the points (lats(k), lons(k)) whose Haversine distance is
    * <= thresholdM, as neighbour lists. Each pair's distance is
    * `Haversine.metres` from its lower-index point to its higher one.
    * Coordinates are degrees, lat in [-90, 90] and lon in [-180, 180].
    * Fails, naming the pair count, as soon as the lists would need more
    * entries than `Int` offsets index, before it allocates them.
    */
  def pairs(lats: Array[Double], lons: Array[Double], thresholdM: Double): Neighbours = {
    val n = lats.length
    val maxAbsLat = lats.foldLeft(0.0)((m, la) => math.max(m, math.abs(la)))
    // Haversine: sin²(d/2R) = sin²(Δφ/2) + cos φ1·cos φ2·sin²(Δλ/2), so a pair
    // within thresholdM has Δφ ≤ thresholdM/R and
    // sin(Δλ/2) ≤ sin(thresholdM/2R) / cos(maxAbsLat)
    val cellLat = math.max(MinCellDeg, math.toDegrees(thresholdM / Haversine.EarthRadiusM))
    val sinHalfLon = math.sin(thresholdM / (2 * Haversine.EarthRadiusM)) /
      math.cos(math.toRadians(maxAbsLat))
    val cellLon = math.max(MinCellDeg, math.toDegrees(2 * math.asin(math.min(1.0, sinHalfLon))))

    // cell (y, x) packed as (y + 2^30) << 32 | (x + 2^31): with cells of at
    // least MinCellDeg, |y| < 2^30 and |x| < 2^31
    val key = new Array[Long](n)
    for (k <- 0 until n) {
      val (y, x) = (math.floor(lats(k) / cellLat).toLong, math.floor(lons(k) / cellLon).toLong)
      require(math.abs(y) < YBias && math.abs(x) < XBias, s"point $k at (${lats(k)}, ${lons(k)}) is off the globe")
      key(k) = (y + YBias) << 32 | (x + XBias)
    }

    // the distinct cells in key order, and the points of each cell in
    // ascending index order (a counting sort by cell)
    val sorted = key.clone()
    Arrays.sort(sorted)
    var nCells = 0
    var s = 0
    while (s < n) {
      if (s == 0 || sorted(s) != sorted(s - 1)) { sorted(nCells) = sorted(s); nCells += 1 }
      s += 1
    }
    val cells = Arrays.copyOf(sorted, nCells)
    val cellOf = new Array[Int](n)
    for (k <- 0 until n) cellOf(k) = Arrays.binarySearch(cells, key(k))
    val cellStart = new Array[Int](nCells + 1)
    for (k <- 0 until n) cellStart(cellOf(k) + 1) += 1
    for (c <- 0 until nCells) cellStart(c + 1) += cellStart(c)
    val members = new Array[Int](n)
    val fill = cellStart.clone()
    for (k <- 0 until n) { members(fill(cellOf(k))) = k; fill(cellOf(k)) += 1 }

    // each cell's 3×3 neighbourhood as cell indices, -1 where no point is
    val around = new Array[Int](9 * nCells)
    for (c <- 0 until nCells; d <- 0 until 9) {
      val y = (cells(c) >>> 32) + d / 3 - 1
      val x = (cells(c) & 0xffffffffL) + d % 3 - 1
      around(9 * c + d) = if (x < 0 || x > 0xffffffffL) -1 else math.max(-1, Arrays.binarySearch(cells, y << 32 | x))
    }

    val (upperEnd, upNbr, upMetres) = upperHalf(lats, lons, thresholdM, cellOf, cellStart, members, around)
    bothHalves(upperEnd, upNbr, upMetres)
  }

  /** The upper half of the neighbour lists, rows in ascending index order:
    * row i, which ends at `upperEnd(i)`, holds each j > i within thresholdM,
    * in probe order. Point i probes the cells `around(9 * cellOf(i) + d)`,
    * and cell c holds the points `members` from `cellStart(c)` until
    * `cellStart(c + 1)`.
    */
  private def upperHalf(lats: Array[Double], lons: Array[Double], thresholdM: Double,
                        cellOf: Array[Int], cellStart: Array[Int], members: Array[Int],
                        around: Array[Int]): (Array[Int], Array[Int], Array[Double]) = {
    val n = lats.length
    val upperEnd = new Array[Int](n)
    var upNbr = new Array[Int](math.max(16, 4 * n))
    var upMetres = new Array[Double](upNbr.length)
    var np = 0
    var i = 0
    while (i < n) {
      var d = 0
      while (d < 9) {
        val c = around(9 * cellOf(i) + d)
        if (c >= 0) {
          var m = cellStart(c)
          while (m < cellStart(c + 1)) {
            val j = members(m)
            if (j > i) {
              val dist = Haversine.metres(lats(i), lons(i), lats(j), lons(j))
              if (dist <= thresholdM) {
                if (np == upNbr.length) {
                  requireFits(np + 1L, thresholdM, n)
                  val cap = math.min(2L * np, MaxPairs).toInt
                  upNbr = Arrays.copyOf(upNbr, cap); upMetres = Arrays.copyOf(upMetres, cap)
                }
                upNbr(np) = j; upMetres(np) = dist; np += 1
              }
            }
            m += 1
          }
        }
        d += 1
      }
      upperEnd(i) = np
      i += 1
    }
    (upperEnd, upNbr, upMetres)
  }

  /** The neighbour lists from their upper half as [[upperHalf]] returns it.
    * Row r is its lower part (the i < r) then its upper part (the j > r).
    * Visiting the upper rows i in ascending order fills each lower part
    * ascending; visiting the lower parts r in ascending order then fills
    * each upper part ascending.
    */
  private def bothHalves(upperEnd: Array[Int], upNbr: Array[Int], upMetres: Array[Double]): Neighbours = {
    val n = upperEnd.length
    val np = if (n == 0) 0 else upperEnd(n - 1)
    val degree = new Array[Int](n)
    for (i <- 0 until n) degree(i) = upperEnd(i) - (if (i == 0) 0 else upperEnd(i - 1))
    for (e <- 0 until np) degree(upNbr(e)) += 1
    val offsets = new Array[Int](n + 1)
    for (r <- 0 until n) offsets(r + 1) = offsets(r) + degree(r)
    val nbr = new Array[Int](2 * np)
    val metres = new Array[Double](2 * np)
    val next = Arrays.copyOf(offsets, n)
    var i = 0
    var e = 0
    while (e < np) {
      while (e == upperEnd(i)) i += 1
      val j = upNbr(e)
      nbr(next(j)) = i; metres(next(j)) = upMetres(e); next(j) += 1
      e += 1
    }
    val lowerEnd = next.clone()
    var r = 0
    while (r < n) {
      e = offsets(r)
      while (e < lowerEnd(r)) {
        val k = nbr(e)
        nbr(next(k)) = r; metres(next(k)) = metres(e); next(k) += 1
        e += 1
      }
      r += 1
    }
    Neighbours(offsets, nbr, metres)
  }

  /** The points of `table`, with the id in column `id`, collected. */
  def collectSorted(table: DataFrame, id: String): PointTable =
    PointTable.ofRows(table.select(col(id).cast(LongType), col("lat").cast(DoubleType),
                                   col("lon").cast(DoubleType)).collect(), 1, 2)

  /** [[pairs]] of `points` (id, lat, lon) as id_a < id_b, dist_m. */
  def neighbourPairs(spark: SparkSession, points: DataFrame, thresholdM: Double): DataFrame = {
    import spark.implicits._
    val p = collectSorted(points, "id")
    pairs(p.lats, p.lons, thresholdM).upperPairs.map { case (i, j, d) => (p.ids(i), p.ids(j), d) }.toIndexedSeq
      .toDF("id_a", "id_b", "dist_m")
  }
}

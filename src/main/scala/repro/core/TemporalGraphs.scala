package repro.core

import java.time.{Instant, ZoneId}
import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Temporal-granularity graph builders (paper §IV-C).
  *
  * All three graphs share the station node set; they differ in how each
  * trip's temporal property enters the edge weight:
  *
  *   - T_Null  (G_Basic): weight(i,j) = #trips between i and j;
  *   - T_Day   (G_Day):   trips carry day-of-week (7 slices);
  *   - T_Hour  (G_Hour):  trips carry hour-of-day (24 slices).
  *
  * The paper stores per-trip temporal properties as edge attributes in
  * Neo4j but does not specify how Louvain consumes them (vanilla Louvain
  * over summed parallel edges would be granularity-blind). We realise the
  * granularity with *co-activity weighting*: each node gets a normalised
  * activity profile q_i over the granularity's slices (share of its trip
  * endpoints in each slice), and each trip is weighted by how temporally
  * typical it is for its endpoints:
  *
  *     w_T(i,j) = Σ_s  #trips(i,j,s) · |S| · (q_i(s) + q_j(s)) / 2.
  *
  * With one slice q ≡ 1 and the factor is exactly 1, so G_Basic keeps raw
  * trip counts. With finer slices, trips in an endpoint's peak hours are
  * up-weighted (|S|·q_peak > 1) and off-rhythm trips damped, so edges
  * inside temporally coherent sub-networks strengthen while cross-pattern
  * edges fade — finer granularity exposes more, and more modular,
  * communities, which is the paper's central observation (3 → 7 → 10
  * communities, Q 0.25 → 0.32 → 0.54).
  */
object TemporalGraphs {

  sealed trait Granularity { def name: String; def slices: Int }
  case object TNull extends Granularity { val name = "T_Null"; val slices = 1 }
  case object TDay extends Granularity { val name = "T_Day"; val slices = 7 }
  case object THour extends Granularity { val name = "T_Hour"; val slices = 24 }

  /** Slice index of a trip's start timestamp under a granularity. */
  def sliceCol(g: Granularity, startTs: Column): Column = g match {
    case TNull => lit(0)
    case TDay  => pmod(dayofweek(startTs) + 5, lit(7)) // 0=Mon .. 6=Sun
    case THour => hour(startTs)
  }

  /** The [[TDay]] and [[THour]] [[sliceCol]]s in Scala: (day, hour) of
    * `at` in `zone`, Monday = 0. `Cleaning.clean` slices the rentals with
    * it, in the configured zone (default UTC).
    */
  def dayHour(at: Instant, zone: ZoneId): (Int, Int) = {
    val t = at.atZone(zone)
    (t.getDayOfWeek.getValue - 1, t.getHour)
  }

  /** The trips as parallel columns: trip i runs from `from(i)` to `to(i)`
    * (location or node ids) and starts on day `dayHour(i) / 24` (Mon = 0)
    * at hour `dayHour(i) % 24`. `Cleaning.clean` returns the cleaned
    * rentals' table, with day and hour from [[dayHour]]; the candidate and
    * the selected graph each [[relabel]] it, and every table and edge
    * weight after the cleaning job is a projection of one of them.
    */
  final case class TripTable(from: Array[Long], to: Array[Long], dayHour: Array[Int]) {
    def size: Int = from.length

    /** This table with both endpoint columns mapped by `f`. */
    def relabel(f: Long => Long): TripTable = TripTable(from.map(f), to.map(f), dayHour)
  }

  /** The [[TripTable]] of `trips` (src_node, dst_node, start_ts), day and
    * hour their [[sliceCol]]s, computed in Spark under the session time
    * zone. The pipeline's tables come from `Cleaning.clean`'s; this one
    * serves [[edges]] and the tests.
    */
  def table(trips: DataFrame): TripTable = {
    val start = col("start_ts")
    val rows = trips.select(col("src_node"), col("dst_node"),
                            sliceCol(TDay, start) * 24 + sliceCol(THour, start)).collect()
    TripTable(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getInt(2)))
  }

  /** rental_id, src_node, dst_node, start_ts: a lazy view of `rentals`
    * with both location ids looked up in `nodeOf` by a Scala UDF, a hash
    * lookup per row. A missing location reads null, because the optimizer
    * may push a caller's filter below the view's, onto rows it drops.
    */
  def trips(rentals: DataFrame, nodeOf: Map[Long, Long]): DataFrame = {
    val node = udf((location: Long) => nodeOf.get(location))
    rentals.select(col("rental_id"), node(col("rental_location_id")) as "src_node",
                   node(col("return_location_id")) as "dst_node", col("start_ts"))
  }

  /** Trips per directed node pair: (src, dst) → n. */
  def pairCounts(t: TripTable): Map[(Long, Long), Long] =
    t.from.indices.groupMapReduce(i => (t.from(i), t.to(i)))(_ => 1L)(_ + _)

  /** Trips per unordered node pair and slice: (src <= dst, slice) → n. */
  def sliceCounts(t: TripTable, g: Granularity): Map[(Long, Long, Int), Long] =
    t.from.indices.groupMapReduce { i =>
      val (s, d, dh) = (t.from(i), t.to(i), t.dayHour(i))
      val slice = g match { case TNull => 0; case TDay => dh / 24; case THour => dh % 24 }
      (math.min(s, d), math.max(s, d), slice)
    }(_ => 1L)(_ + _)

  /** Node activity profiles: (node_id, slice) → trip-endpoint count.
    * A trip contributes both its endpoints, so any (i,j,s) trip implies
    * p_i(s) >= 1 and p_j(s) >= 1.
    */
  def profiles(counts: Map[(Long, Long, Int), Long]): Map[(Long, Int), Long] =
    counts.toSeq
      .flatMap { case ((a, b, s), n) => Seq((a, s) -> n, (b, s) -> n) }
      .groupMapReduce(_._1)(_._2)(_ + _)

  /** Contrast exponent on the co-activity factor (r^γ). γ=1 keeps the
    * raw factor; higher γ amplifies the separation between in-rhythm and
    * off-rhythm trips. T_Null is exact for any γ (r ≡ 1).
    *
    * γ=6 is calibrated (jobs/Tune.scala sweep, recorded in
    * EXPERIMENTS.md) so the granularity progression matches the paper's
    * shape: Q rises 0.37 → 0.48 → 0.55 against the paper's
    * 0.25 → 0.32 → 0.54, monotone in γ throughout the sweep.
    */
  val DefaultGamma = 6.0

  /** Undirected weighted edge list (src <= dst, weight) for Louvain,
    * sorted by (src, dst), with self-loops included (their trips are
    * co-active by definition — both endpoints are the same node).
    */
  def weights(trips: TripTable, g: Granularity, gamma: Double = DefaultGamma): Seq[(Long, Long, Double)] = {
    val slices = sliceCounts(trips, g)
    val p = profiles(slices)
    val total = p.groupMapReduce(_._1._1)(_._2)(_ + _)
    def q(node: Long, s: Int): Double = p((node, s)).toDouble / total(node)
    // summed in ascending slice order, so the weights do not depend on
    // hash iteration order
    slices.toSeq.sortBy(_._1)
      .map { case ((a, b, s), n) =>
        (a, b) -> n * math.pow(g.slices * (q(a, s) + q(b, s)) / 2, gamma) }
      .groupMapReduce(_._1)(_._2)(_ + _)
      .toSeq.sortBy(_._1)
      .collect { case ((a, b), w) if w > 0 => (a, b, w) }
  }

  /** [[weights]] of the trips' [[table]] as a DataFrame: src, dst, weight. */
  def edges(spark: SparkSession, trips: DataFrame, g: Granularity,
            gamma: Double = DefaultGamma): DataFrame = {
    import spark.implicits._
    weights(table(trips), g, gamma).toDF("src", "dst", "weight")
  }
}

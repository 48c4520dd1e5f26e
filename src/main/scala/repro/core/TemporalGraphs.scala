package repro.core

import java.time.{Instant, ZoneId}
import scala.collection.mutable
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

  /** [[slice]]: the slice of a trip that starts at `dayHour` (day · 24 + hour, Mon = 0). */
  sealed trait Granularity { def name: String; def slices: Int; def slice(dayHour: Int): Int }
  case object TNull extends Granularity { val name = "T_Null"; val slices = 1; def slice(dayHour: Int) = 0 }
  case object TDay extends Granularity { val name = "T_Day"; val slices = 7; def slice(dayHour: Int) = dayHour / 24 }
  case object THour extends Granularity { val name = "T_Hour"; val slices = 24; def slice(dayHour: Int) = dayHour % 24 }

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

  /** The trips as parallel columns over one node numbering: trip i runs
    * from node `ids(from(i))` to node `ids(to(i))` and starts on day
    * `dayHour(i) / 24` (Mon = 0) at hour `dayHour(i) % 24`. The ids are
    * strictly ascending, so position order is id order. `Cleaning.clean`
    * returns the cleaned rentals' table over the location ids, with day and
    * hour from [[dayHour]]; the candidate and the selected graph each
    * [[relabel]] it onto their node ids, and every table and edge weight
    * after the cleaning job is a projection of one of them.
    */
  final case class TripTable(ids: Array[Long], from: Array[Int], to: Array[Int], dayHour: Array[Int]) {
    require(to.length == from.length && dayHour.length == from.length,
            s"trip columns of unequal length: from ${from.length}, to ${to.length}, dayHour ${dayHour.length}")
    require(ids.indices.drop(1).forall(k => ids(k - 1) < ids(k)), "trip node ids must be strictly ascending")
    for (i <- from.indices)
      require(from(i) >= 0 && from(i) < ids.length && to(i) >= 0 && to(i) < ids.length,
              s"trip $i runs from position ${from(i)} to ${to(i)}, outside the ${ids.length} node ids")
    def size: Int = from.length

    /** This table over `newIds`: an endpoint at position p moves to `map(p)`. */
    def relabel(map: Array[Int], newIds: Array[Long]): TripTable =
      TripTable(newIds, from.map(map(_)), to.map(map(_)), dayHour)
  }

  /** The [[TripTable]] of `trips` (src_node, dst_node, start_ts) over the
    * node ids they reference, day and hour their [[sliceCol]]s, computed
    * in Spark under the session time zone. The pipeline's tables come from
    * `Cleaning.clean`'s, sliced in the data's zone, which is UTC
    * (`MobySchema.DefaultZone`) in every `Pipeline.run`; this one equals
    * them only when the session zone is that zone. It serves [[edges]] and
    * the tests.
    */
  def table(trips: DataFrame): TripTable = {
    val start = col("start_ts")
    val rows = trips.select(col("src_node"), col("dst_node"),
                            sliceCol(TDay, start) * 24 + sliceCol(THour, start)).collect()
    val (src, dst) = (rows.map(_.getLong(0)), rows.map(_.getLong(1)))
    val ids = (src ++ dst).distinct.sorted
    val at = (id: Long) => java.util.Arrays.binarySearch(ids, id)
    TripTable(ids, src.map(at), dst.map(at), rows.map(_.getInt(2)))
  }

  /** rental_id, src_node, dst_node, start_ts: a lazy view of `rentals`
    * with both location ids mapped to node ids by a Scala UDF: location
    * `locationIds(k)` is node `nodeIds(k)`, found by a binary search of the
    * ascending `locationIds`. A missing location reads null, because the
    * optimizer may push a caller's filter below the view's, onto rows it
    * drops.
    */
  def trips(rentals: DataFrame, locationIds: Array[Long], nodeIds: Array[Long]): DataFrame = {
    val node = udf { (location: Long) =>
      val k = java.util.Arrays.binarySearch(locationIds, location)
      if (k >= 0) Some(nodeIds(k)) else None
    }
    rentals.select(col("rental_id"), node(col("rental_location_id")) as "src_node",
                   node(col("return_location_id")) as "dst_node", col("start_ts"))
  }

  /** The distinct `keys`, ascending, and how often each occurs: one sort
    * of `keys` in place, then one pass for the bounds of its runs.
    */
  private def runs(keys: Array[Long]): (Array[Long], Array[Long]) = {
    java.util.Arrays.sort(keys)
    val bounds = Array.range(0, keys.length + 1).filter(i => i == 0 || i == keys.length || keys(i) != keys(i - 1))
    (bounds.init.map(keys(_)), Array.tabulate(bounds.length - 1)(j => (bounds(j + 1) - bounds(j)).toLong))
  }

  /** Trips per directed node pair: the pairs that have trips as ascending
    * keys `from · N + to` (N = `t.ids.length`, positions), and each one's
    * trip count.
    */
  def pairCounts(t: TripTable): (Array[Long], Array[Long]) = {
    val n = t.ids.length.toLong
    runs(Array.tabulate(t.size)(i => t.from(i) * n + t.to(i)))
  }

  /** Trips per unordered node pair and slice: the triples that have trips
    * as ascending keys `(min · N + max) · |S| + slice` (positions, N =
    * `t.ids.length`, |S| = `g.slices`), and each one's trip count.
    */
  def sliceCounts(t: TripTable, g: Granularity): (Array[Long], Array[Long]) = {
    val n = t.ids.length.toLong
    runs(Array.tabulate(t.size) { i =>
      val (a, b) = (t.from(i), t.to(i))
      (math.min(a, b) * n + math.max(a, b)) * g.slices + g.slice(t.dayHour(i))
    })
  }

  /** Node activity profiles: trip endpoints at node position k in slice s,
    * at index `k · |S| + s`. A trip contributes both its endpoints, so any
    * (i,j,s) trip implies p_i(s) >= 1 and p_j(s) >= 1.
    */
  def profiles(t: TripTable, g: Granularity): Array[Long] = {
    val p = new Array[Long](t.ids.length * g.slices)
    for (ends <- Seq(t.from, t.to); i <- ends.indices) p(ends(i) * g.slices + g.slice(t.dayHour(i))) += 1
    p
  }

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
    val (ids, slices) = (trips.ids, g.slices)
    val (keys, counts) = sliceCounts(trips, g)
    val p = profiles(trips, g)
    val total = p.grouped(slices).map(_.sum).toArray
    def q(node: Int, s: Int): Double = p(node * slices + s).toDouble / total(node)
    // a pair's keys are one run, in ascending slice order, so its weight is
    // summed in that order whatever order the trips came in
    val edges = mutable.ArrayBuffer.empty[(Long, Long, Double)]
    for (i <- keys.indices) {
      val (pair, s) = (keys(i) / slices, (keys(i) % slices).toInt)
      val (a, b) = ((pair / ids.length).toInt, (pair % ids.length).toInt)
      val w = counts(i) * math.pow(g.slices * (q(a, s) + q(b, s)) / 2, gamma)
      if (i > 0 && keys(i - 1) / slices == pair) edges(edges.length - 1) = edges.last.copy(_3 = edges.last._3 + w)
      else edges += ((ids(a), ids(b), w))
    }
    edges.filter(_._3 > 0).toSeq
  }

  /** [[weights]] of the trips' [[table]] as a DataFrame: src, dst, weight.
    * The trips are sliced in the session time zone, so these are the
    * pipeline's weights only when that zone is the data's (UTC in every
    * `Pipeline.run`).
    */
  def edges(spark: SparkSession, trips: DataFrame, g: Granularity,
            gamma: Double = DefaultGamma): DataFrame = {
    import spark.implicits._
    weights(table(trips), g, gamma).toDF("src", "dst", "weight")
  }
}

package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType
import repro.core._
import repro.core.TemporalGraphs.TripTable
import repro.data.{Cleaning, MobySynth}
import repro.data.MobySchema._

/** Shared, lazily-computed pipeline artifacts at the standard unit-test
  * scale (sf=0.05, seed=7). Suites run sequentially in one forked JVM
  * (build.sbt: `Test / parallelExecution := false`), so each stage is
  * computed once per test run regardless of how many suites touch it.
  */
object TestFixtures {
  val sf = 0.05
  val seed = 7L

  private def spark = SparkSpec.shared

  lazy val counts = MobySynth.counts(sf)
  lazy val data = MobySynth.generate(spark, sf, seed)
  lazy val cleaned = Cleaning.clean(data)
  lazy val report = Cleaning.report(data, cleaned)
  lazy val candidate = CandidateGraph.build(spark, cleaned)
  lazy val selection = StationSelection.select(spark, candidate)
  lazy val selected = SelectedGraph.build(spark, candidate, selection)

  lazy val basic = Pipeline.communities(spark, selected, TemporalGraphs.TNull)
  lazy val day = Pipeline.communities(spark, selected, TemporalGraphs.TDay)
  lazy val hourly = Pipeline.communities(spark, selected, TemporalGraphs.THour)

  /** `t` as a multiset: (from id, to id, day, hour) → trips. A
    * [[TripTable]] compares its arrays by reference, so tests compare tables
    * through it.
    */
  def tripCounts(t: TripTable): Map[(Long, Long, Int, Int), Long] =
    t.from.indices.groupMapReduce { i =>
      (t.ids(t.from(i)), t.ids(t.to(i)), t.dayHour(i) / 24, t.dayHour(i) % 24)
    }(_ => 1L)(_ + _)

  /** The [[TripTable]] over the ascending `ids` of `counts`: n trips for
    * each (from id, to id, day, hour) → n.
    */
  def tripTable(ids: Seq[Long], counts: Map[(Long, Long, Int, Int), Long]): TripTable = {
    val trips = counts.toSeq.flatMap { case (key, n) => Seq.fill(n.toInt)(key) }
    val at = (id: Long) => ids.indexOf(id)
    TripTable(ids.toArray, trips.map(t => at(t._1)).toArray, trips.map(t => at(t._2)).toArray,
              trips.map(t => t._3 * 24 + t._4).toArray)
  }

  /** A `MobyData` over the rows of DataFrames with the generator's columns:
    * the stations and locations collected, the rentals' RDD and no
    * location meta.
    */
  def mobyData(stations: DataFrame, locations: DataFrame, rentals: DataFrame): MobyData = {
    def inOrder(df: DataFrame, like: StructType) =
      df.select(like.fieldNames.toIndexedSeq.map(col): _*)
    MobyData(spark, inOrder(stations, StationSchema).collect().toSeq,
             inOrder(locations, LocationSchema).collect().toSeq,
             inOrder(rentals, RentalSchema).rdd, Seq.empty)
  }
}

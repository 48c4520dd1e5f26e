package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.TemporalGraphs.{DefaultGamma, Granularity, TripTable}

/** Correctness oracles: DuckDB, and the map-based trip-table projections.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }

  // ---- the trip-table projections over boxed maps keyed by node ids, as
  // the program computed them before it counted by node position: the
  // reference that the packed-key sorts and array passes are compared with

  private def src(t: TripTable, i: Int): Long = t.ids(t.from(i))
  private def dst(t: TripTable, i: Int): Long = t.ids(t.to(i))

  /** Trips per directed node pair: (src, dst) → n. */
  def pairCounts(t: TripTable): Map[(Long, Long), Long] =
    t.from.indices.groupMapReduce(i => (src(t, i), dst(t, i)))(_ => 1L)(_ + _)

  /** Per-node degree: trips from + trips to. Nodes without trips are absent. */
  def degrees(t: TripTable): Map[Long, Long] =
    pairCounts(t).toSeq
      .flatMap { case ((s, d), n) => Seq(s -> n, d -> n) }
      .groupMapReduce(_._1)(_._2)(_ + _)

  /** Trips per unordered node pair and slice: (src <= dst, slice) → n. */
  def sliceCounts(t: TripTable, g: Granularity): Map[(Long, Long, Int), Long] =
    t.from.indices.groupMapReduce { i =>
      val (s, d) = (src(t, i), dst(t, i))
      (math.min(s, d), math.max(s, d), g.slice(t.dayHour(i)))
    }(_ => 1L)(_ + _)

  /** Node activity profiles: (node_id, slice) → trip-endpoint count. */
  def profiles(counts: Map[(Long, Long, Int), Long]): Map[(Long, Int), Long] =
    counts.toSeq
      .flatMap { case ((a, b, s), n) => Seq((a, s) -> n, (b, s) -> n) }
      .groupMapReduce(_._1)(_._2)(_ + _)

  /** Undirected weighted edge list (src <= dst, weight), sorted by (src, dst). */
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
}

package repro

import java.sql.DriverManager
import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row}
import repro.community.Modularity
import repro.core.TemporalGraphs.{DefaultGamma, Granularity, TripTable}

/** Correctness oracles: DuckDB, the map-based trip-table projections, the
  * map-based Louvain and Algorithm 1 by an all-pairs scan.
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

  // ---- Louvain over a map of maps keyed by node ids, as the program ran
  // it before it numbered the nodes by position: the reference that
  // Louvain.run is compared with, community map, levels and Q's bits

  /** Exact sequential Louvain (reference implementation).
    *
    * Standard two-phase algorithm (Blondel et al.): local moving in
    * ascending-node-id order until no gain, then graph contraction; repeat
    * until modularity stops improving. Fully deterministic: ties are broken
    * by the smallest candidate community id.
    *
    * Input edges are unordered pairs (src <= dst, weight) with self-loops
    * allowed, matching [[Modularity]]'s convention.
    */
  object MapLouvain {

    final case class LouvainResult(community: Map[Long, Long], modularity: Double, levels: Int)

    private final case class G(nodes: Array[Long],
                               adj: Map[Long, Map[Long, Double]], // A(i,j); A(i,i)=2*selfw
                               twoM: Double)

    private def build(edges: Seq[(Long, Long, Double)]): G = {
      val adj = mutable.HashMap.empty[Long, mutable.HashMap[Long, Double]]
      def put(a: Long, b: Long, w: Double): Unit = {
        val m = adj.getOrElseUpdate(a, mutable.HashMap.empty)
        m(b) = m.getOrElse(b, 0.0) + w
      }
      edges.foreach { case (s, d, w) =>
        require(s <= d, "edges must be unordered (src <= dst)")
        if (s == d) put(s, s, 2 * w) else { put(s, d, w); put(d, s, w) }
      }
      val twoM = adj.valuesIterator.flatMap(_.valuesIterator).sum
      G(adj.keys.toArray.sorted, adj.view.mapValues(_.toMap).toMap, twoM)
    }

    /** One level of local moving; returns (assignment, improved?). */
    private def oneLevel(g: G): (mutable.HashMap[Long, Long], Boolean) = {
      val comm = mutable.HashMap.empty[Long, Long]
      g.nodes.foreach(v => comm(v) = v)
      val k = mutable.HashMap.empty[Long, Double]
      g.nodes.foreach(v => k(v) = g.adj(v).valuesIterator.sum)
      val tot = mutable.HashMap.empty[Long, Double]
      g.nodes.foreach(v => tot(v) = k(v))
      val twoM = g.twoM
      // one sweep over the nodes in id order; true if any node moved
      def sweep(): Boolean = g.nodes.count { v =>
        val cv = comm(v)
        // weight from v to each neighbouring community (self-loop excluded)
        val nbrW = mutable.HashMap.empty[Long, Double].withDefaultValue(0.0)
        g.adj(v).foreach { case (u, w) => if (u != v) nbrW(comm(u)) += w }
        tot(cv) -= k(v)
        // gain of joining community c: nbrW(c)/m' - tot(c)*k(v)/2m²·2 —
        // compare via gain(c) = nbrW(c) - tot(c)*k(v)/twoM
        val stayGain = nbrW(cv) - tot(cv) * k(v) / twoM
        // move only on strictly positive improvement; ties among candidates
        // resolve to the smallest id via the sorted scan
        val (bestC, _) = nbrW.toSeq.sortBy(_._1).foldLeft((cv, stayGain)) { case (best @ (_, bestGain), (c, w)) =>
          val gain = w - tot(c) * k(v) / twoM
          if (c != cv && gain > bestGain + 1e-12) (c, gain) else best
        }
        tot(bestC) += k(v)
        if (bestC != cv) comm(v) = bestC
        bestC != cv
      } > 0
      // sweep until a sweep moves nothing
      val improvedEver = sweep()
      if (improvedEver) while (sweep()) ()
      (comm, improvedEver)
    }

    private def contract(g: G, comm: mutable.HashMap[Long, Long]): Seq[(Long, Long, Double)] = {
      val agg = mutable.HashMap.empty[(Long, Long), Double]
      for ((v, nbrs) <- g.adj; (u, w) <- nbrs if v <= u) {
        val (a, b) = {
          val (ca, cb) = (comm(v), comm(u))
          if (ca <= cb) (ca, cb) else (cb, ca)
        }
        // A(v,v) stores 2*selfw; convert back to edge-list weight
        val ew = if (v == u) w / 2 else w
        val key = (a, b)
        agg(key) = agg.getOrElse(key, 0.0) + ew
      }
      agg.toSeq.map { case ((a, b), w) => (a, b, w) }
    }

    /** Run Louvain to convergence. */
    def run(edges: Seq[(Long, Long, Double)]): LouvainResult = {
      require(edges.nonEmpty, "empty graph")
      var g = build(edges)
      // node -> community at the finest level
      var mapping: Map[Long, Long] = g.nodes.map(v => v -> v).toMap
      var levels = 0
      var improved = true
      while (improved) {
        val (comm, didImprove) = oneLevel(g)
        improved = didImprove
        if (didImprove) {
          levels += 1
          mapping = mapping.view.mapValues(c => comm(c)).toMap
          g = build(contract(g, comm))
        }
      }
      // canonicalise community ids to the min member id
      val byComm = mapping.groupBy(_._2).view.mapValues(_.keys.min).toMap
      val finalMap = mapping.view.mapValues(byComm).toMap
      LouvainResult(finalMap, Modularity.local(edges, finalMap), levels)
    }
  }

  // ---- Algorithm 1 over mutable records and a nested all-pairs scan, as
  // the program ran it before pruning read the grid's close pairs: the
  // reference that StationSelection.select is compared with, Result for
  // Result

  object PairScan {
    import org.apache.spark.sql.SparkSession
    import repro.core.{CandidateGraph, StationSelection}
    import repro.core.StationSelection.{Candidate, Result}
    import repro.geo.{Haversine, PointTable}

    def select(@scala.annotation.unused("StationSelection.select's signature") spark: SparkSession,
               candidate: CandidateGraph.Result, minDistM: Double = 250.0): Result = {
      // positions ascend with ids, so the candidates come in id order
      // StationSelection.degrees: Oracle.degrees is the map-based reference
      val (stations, others) =
        candidate.nodes.zip(StationSelection.degrees(candidate.tripTable)).partition(_._1.isStation)
      require(stations.nonEmpty, "no fixed stations")
      val (setter, threshold) = stations.minBy(_._2)
      val stationPoints = PointTable(stations.map(_._1.id).toArray, stations.map(_._1.lat).toArray,
                                     stations.map(_._1.lon).toArray)

      final case class C(id: Long, lat: Double, lon: Double, deg: Long, var score: Long)
      val cands = others.map { case (n, d) => C(n.id, n.lat, n.lon, d, 0L) }

      // Rules 3 and 4; a candidate without trips has nothing to rank
      val degreePass = cands.filter(_.deg >= threshold)
      val alive = degreePass.filter(c => c.deg > 0 && !(Haversine.nearest(c.lat, c.lon, stationPoints)._1 <= minDistM))
      for (c <- alive) c.score = c.deg

      // pairwise pruning in one id-ordered pass: scores only fall to 0, so
      // once a pair is checked one of the two is zero or they are far apart,
      // and a second pass would change nothing
      for (i <- alive.indices; j <- i + 1 until alive.length) {
        val a = alive(i); val b = alive(j)
        if (a.score > 0 && b.score > 0 &&
            Haversine.metres(a.lat, a.lon, b.lat, b.lon) < minDistM) {
          // zero the lower-degree station; break id ties deterministically
          val loser = if (a.deg < b.deg || (a.deg == b.deg && a.id > b.id)) a else b
          loser.score = 0
        }
      }

      val out = cands.sortBy(c => (-c.score, c.id))
        .map(c => Candidate(c.id, c.lat, c.lon, c.deg, c.score, c.score > 0))
      Result(out, threshold, setter.id, degreePass.size, alive.size, alive.count(_.score == 0))
    }
  }
}

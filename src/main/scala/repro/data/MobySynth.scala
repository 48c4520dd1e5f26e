package repro.data

import java.sql.Timestamp
import java.time.{Instant, LocalDate, ZoneId}
import scala.collection.mutable
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.unsafe.types.UTF8String
import repro.geo.Haversine
import MobySchema._

/** Deterministic synthetic generator for the Moby Bikes dataset.
  *
  * The paper's input is proprietary (21 months of Dublin trips). This
  * generator reproduces its statistical shape — see DESIGN.md §2:
  *
  *   - 92 fixed stations + ~1,080 candidate "hotspots" laid out on
  *     sunflower lattices inside six Dublin regions (typical anchor
  *     spacing 120–150 m, well above the 100 m HAC cut);
  *   - good locations scattered N(0, ~18 m) around anchors, 70 % around
  *     stations (dockless users chase the return incentive) and 30 %
  *     around hotspots;
  *   - rentals with a block-level origin/destination matrix (~78 % of
  *     trips stay inside their spatial block → the paper's ~74 %
  *     self-containment after clustering) and per-archetype day-of-week /
  *     hour-of-day profiles (commuter AM/PM, leisure weekend-midday);
  *   - dirty rows calibrated so cleaning reproduces Table I exactly at
  *     sf=1: 3 bad stations, 83 bad locations, 452 bad rentals.
  *
  * Everything is a pure function of (sf, seed, zone): each row's
  * randomness is xxhash64 over (seed, salt, row id), never `rand()`, with
  * Spark's own XXH64, so every uniform equals the SQL expression
  * `pmod(xxhash64(seed, salt, id), 1000003) / 1000003.0`. A good rental
  * starts at midnight, in the configured zone (default UTC), plus its
  * drawn seconds. The stations, locations and location meta are drawn in
  * one pass over plain arrays and stay rows on the driver. The rentals,
  * dirty ones included, are drawn in the tasks of whichever job reads
  * them, from samplers broadcast once ([[Rentals]]): no Spark job and no
  * query runs here.
  */
object MobySynth {

  def counts(sf: Double): MobyCounts = MobyCounts(sf)

  /** Largest-remainder apportionment of `total` over integer weights. */
  private[data] def apportion(total: Long, weights: Seq[Int]): Seq[Long] = {
    val wSum = weights.sum.toDouble
    val raw = weights.map(w => w * total / wSum)
    val base = raw.map(_.toLong)
    var left = total - base.sum
    val order = raw.zip(base).map { case (r, b) => r - b }.zipWithIndex.sortBy(-_._1).map(_._2)
    val out = base.toArray
    var i = 0
    while (left > 0) { out(order(i % order.size)) += 1; left -= 1; i += 1 }
    out.toSeq
  }

  /** Sunflower (Vogel spiral) layout: near-uniform points in a disc with
    * typical spacing ~ radius * 1.77 / sqrt(n).
    */
  private def sunflower(centerLat: Double, centerLon: Double, radiusM: Double,
                        n: Int, phase: Double): IndexedSeq[(Double, Double)] = {
    val mPerLon = Haversine.metresPerDegLon(centerLat)
    (0 until n).map { k =>
      val r = radiusM * math.sqrt((k + 0.5) / math.max(1, n))
      val t = k * 2.3999632297 + phase
      (centerLat + r * math.cos(t) / Haversine.MetresPerDegLat,
       centerLon + r * math.sin(t) / mPerLon)
    }
  }

  /** Anchor ground truth: cls, class-local idx, region meta, coordinates. */
  private[data] final case class Anchor(cls: String, idx: Long, region: String,
                                        block: String, archetype: String,
                                        lat: Double, lon: Double)

  /** Stations cover the inner 0.75·R of each region; hotspots extend to
    * 1.25·R. The outer band is demand beyond existing coverage — the
    * paper's selected stations "extend into the adjacent suburbs beyond
    * the positions of the existing stations", and Algorithm 1's 250 m
    * station-exclusion would otherwise reject nearly everything.
    */
  private[data] def anchors(c: MobyCounts): IndexedSeq[Anchor] = {
    val stationCounts = apportion(c.goodStations, Regions.map(_.stationW))
    val hotspotCounts = apportion(c.hotspots, Regions.map(_.hotspotW))
    // each class numbers its anchors 0, 1, ... across the regions in order
    def layout(cls: String, counts: Seq[Long], radiusFrac: Double, phase: Double) =
      Regions.zip(counts).flatMap { case (r, n) =>
        sunflower(r.lat, r.lon, r.radiusM * radiusFrac, n.toInt, phase).map { case (la, lo) => (r, la, lo) }
      }.zipWithIndex.map { case ((r, la, lo), i) => Anchor(cls, i.toLong, r.code, r.block, r.archetype, la, lo) }
    val sts = layout("station", stationCounts, 0.75, 0.7)
    val hot = layout("hotspot", hotspotCounts, 1.25, 0.0)
    (sts ++ hot).toIndexedSeq
  }

  // ---- temporal profiles (unnormalised weights; normalised in Cdf) ----

  private[data] val DayWeights: Map[String, Seq[Double]] = Map(
    Archetype.Centre   -> Seq(16, 16, 16, 16, 16, 10, 10),
    Archetype.Commuter -> Seq(17, 17, 17, 17, 16, 8, 8),
    Archetype.Leisure  -> Seq(9, 9, 9, 9, 14, 25, 25),
  )

  /** Hour profiles are keyed by a finer *hour-archetype*: commuter
    * stations split into AM-origin (residential) and PM-origin
    * (employment) halves — the directional asymmetry real commuter flows
    * have, and what differentiates the paper's 10 G_Hour communities
    * beyond its 7 G_Day ones.
    */
  private[data] val HourWeights: Map[String, Seq[Double]] = Map(
    Archetype.Centre -> Seq(0.4, 0.2, 0.1, 0.1, 0.2, 0.6, 1.5, 3.5, 5.5, 6.0, 6.0, 6.5,
                            7.0, 6.5, 6.0, 6.0, 6.5, 7.0, 6.5, 5.0, 3.5, 2.5, 1.5, 0.8),
    "commuter-am" -> Seq(0.3, 0.15, 0.1, 0.1, 0.3, 1.5, 6.0, 14.0, 18.0, 8.0, 3.0, 2.5,
                         3.0, 2.5, 2.0, 2.5, 4.0, 6.0, 4.0, 2.5, 1.5, 1.0, 0.6, 0.4),
    "commuter-pm" -> Seq(0.3, 0.15, 0.1, 0.1, 0.2, 0.6, 1.5, 3.5, 4.5, 3.0, 2.5, 3.0,
                         3.5, 3.0, 3.5, 6.0, 11.0, 16.0, 12.0, 6.0, 3.0, 2.0, 1.0, 0.6),
    "leisure-mid" -> Seq(0.3, 0.2, 0.1, 0.1, 0.2, 0.4, 1.0, 2.0, 4.0, 6.5, 9.5, 12.0,
                         13.0, 12.5, 10.5, 8.0, 5.5, 3.5, 2.5, 1.5, 1.0, 0.7, 0.5, 0.3),
    "leisure-eve" -> Seq(0.4, 0.2, 0.1, 0.1, 0.1, 0.2, 0.5, 1.0, 1.5, 2.5, 3.5, 4.5,
                         5.5, 6.0, 6.5, 7.5, 9.0, 10.5, 11.5, 11.0, 8.5, 5.5, 3.0, 1.5),
  )

  /** Per-anchor location-allocation weights.
    *
    * Stations follow a moderate zipf (busy hubs, long tail) with a
    * handful of deliberately *weak* stations at the end — real networks
    * have dud stations, and Algorithm 1's degree threshold is the MIN
    * fixed-station degree, so the weak tail is what makes selection
    * non-degenerate (threshold ≈ a few dozen trips, like the paper's).
    * Hotspots follow a flatter zipf so a few hundred candidates clear the
    * threshold and the 250 m spacing rules do the rest.
    */
  private[data] def anchorWeights(cls: String, n: Long): Seq[Double] =
    if (cls == "station") {
      val weak = math.max(1L, n / 15).toInt
      (0 until n.toInt).map(i =>
        if (i >= n - weak) 0.0004 else 1.0 / math.pow(i + 10, 1.2))
    } else {
      // zipf popularity, but *permuted* across sunflower positions: the
      // anchor index encodes radius (low = region centre), and demand
      // hotspots must appear at all radii or every high-degree candidate
      // would sit inside the stations' 250 m exclusion zone
      val ranks = new scala.util.Random(97L).shuffle((0 until n.toInt).toVector)
      (0 until n.toInt).map(i => 1.0 / math.pow(ranks(i) + 5, 1.05))
    }

  /** Destination draws concentrate on popular anchors: each anchor's
    * weight is its location-allocation share raised to `DestSharpen`.
    * Without sharpening (uniform draws over a region's locations) the
    * candidate graph comes out ~3× denser than the paper's Table II
    * (16,042 directed pairs over 61,872 trips ⇒ ~3.9 trips per pair).
    */
  private val DestSharpen = 2.0

  /** Per-region destination sampler: the positions in `anchorSeq` of the
    * region's anchors in (cls, idx) order, and a [[Cdf]] over their
    * sharpened weights.
    */
  private[data] def destinations(c: MobyCounts,
                                 anchorSeq: IndexedSeq[Anchor]): Map[String, (IndexedSeq[Int], Cdf)] = {
    val wS = anchorWeights("station", c.goodStations); val sS = wS.sum
    val wH = anchorWeights("hotspot", c.hotspots); val sH = wH.sum
    def baseW(a: Anchor): Double =
      if (a.cls == "station") 0.7 * wS(a.idx.toInt) / sS else 0.3 * wH(a.idx.toInt) / sH
    anchorSeq.indices.groupBy(anchorSeq(_).region).map { case (region, at) =>
      val sorted = at.sortBy(g => (anchorSeq(g).cls, anchorSeq(g).idx))
      region -> ((sorted, new Cdf(sorted.map(g => math.pow(baseW(anchorSeq(g)), DestSharpen)))))
    }
  }

  /** Cross-block destination weights: P(dest block | origin block leaves). */
  private val CrossBlock: Map[(String, String), Double] = Map(
    ("central", "south") -> 0.5, ("central", "suburb") -> 0.5,
    ("south", "central") -> 0.65, ("south", "suburb") -> 0.35,
    ("suburb", "central") -> 0.65, ("suburb", "south") -> 0.35,
  )

  private val SameBlockP = 0.78
  /** Given a same-block destination, probability of staying in the
    * origin's *region* (vs the block's location-share draw). Regions are
    * the temporally coherent sub-networks (e.g. Dún Laoghaire leisure vs
    * Southside commuter); without this locality their mutual edges drown
    * the finer structure the temporal granularities are meant to expose.
    */
  private val SameRegionP = 0.6
  private val RoundTripP = 0.05
  private val DominantArchetypeP = 0.85
  private val NWeeks = 88 // Mondays 2020-01-06 .. 2021-09-06, all trips < 2021-09-19

  /** Seed of Spark's `xxhash64` SQL function. */
  private val XxSeed = 42L

  /** Deterministic uniform in [0,1) from (seed, salt, keys): exactly the
    * Spark SQL value of `pmod(xxhash64(seed, salt, keys...), 1000003) /
    * 1000003.0` for a bigint seed, an int salt and bigint keys, chained
    * through Spark's own XXH64.
    */
  private[data] def uniform(seed: Long, salt: Int, keys: Long*): Double = {
    val h = keys.foldLeft(XXH64.hashInt(salt, XXH64.hashLong(seed, XxSeed)))((h, k) => XXH64.hashLong(k, h))
    math.floorMod(h, 1000003L) / 1000003.0
  }

  /** Spark's `xxhash64(s)` of one string. */
  private[data] def hashString(s: String): Long =
    XXH64.hashUTF8String(UTF8String.fromString(s), XxSeed)

  /** Standard normal (Box–Muller) clamped to ±3σ so every good location
    * stays inside its region's land envelope. StrictMath.log and Math.cos
    * are what Spark's LOG and COS evaluate.
    */
  private[data] def normal(seed: Long, salt: Int, id: Long): Double = {
    val u1 = uniform(seed, salt, id) * 0.999999 + 1e-7
    val u2 = uniform(seed, salt + 1000, id)
    math.max(-3.0, math.min(3.0, math.sqrt(-2.0 * StrictMath.log(u1)) * math.cos(2 * math.Pi * u2)))
  }

  /** Inverse-CDF sampler over unnormalised weights: `lo(k)` is the share
    * of the weights before index k, and `draw(u)` for u in [0, 1) is the
    * last k with lo(k) <= u, found by binary search, so k is drawn with
    * probability weights(k) / weights.sum.
    */
  private[data] final class Cdf(weights: Seq[Double]) extends Serializable {
    val lo: Array[Double] = {
      val total = weights.sum
      weights.scanLeft(0.0)(_ + _).init.map(_ / total).toArray
    }

    def draw(u: Double): Int = {
      var a = 0
      var b = lo.length - 1
      while (a < b) {
        val m = (a + b + 1) >>> 1
        if (lo(m) <= u) a = m else b = m - 1
      }
      a
    }
  }

  private val DayCdf = DayWeights.map { case (a, ws) => a -> new Cdf(ws) }
  private val HourCdf = HourWeights.map { case (a, ws) => a -> new Cdf(ws) }

  /** Midnight (epoch seconds) in `zone` of each day from 2020-01-06. */
  private def midnights(zone: ZoneId): Array[Long] =
    Array.tabulate(NWeeks * 7)(d => LocalDate.of(2020, 1, 6).plusDays(d.toLong).atStartOfDay(zone).toEpochSecond)

  /** The rentals' sampler: everything a rental's draw reads, shipped to
    * the tasks once. Good rental `rid` is a pure function of (seed, salt,
    * rid) over these samplers, and so is its pre-mirror plan, which the
    * next rental's mirror reads. The dirty rentals follow the good ones in
    * id order, each a pure function of its id.
    *
    * @param c            the dataset's row counts and location id layout
    * @param locAnchor    each good location's position in `anchorSeq`
    * @param locDay       each good location's day-of-week sampler
    * @param locHour      each good location's hour-of-day sampler
    * @param atAnchor     each anchor's location ids, ascending
    * @param regionCounts good locations per region
    * @param dest         per-region destination sampler ([[destinations]])
    * @param midnight     midnight (epoch seconds) of each day from 2020-01-06
    */
  private[data] final class Rentals(seed: Long, c: MobyCounts, anchorSeq: IndexedSeq[Anchor],
                                     locAnchor: Array[Int], locDay: Array[Cdf], locHour: Array[Cdf],
                                     atAnchor: Array[Array[Long]], regionCounts: Map[String, Long],
                                     dest: Map[String, (IndexedSeq[Int], Cdf)], midnight: Array[Long])
      extends Serializable {

    private def u(salt: Int, rid: Long): Double = uniform(seed, salt, rid)

    /** Rental `rid`'s endpoint plan (origin, return) before the mirror
      * pass, so a mirror can swap its predecessor's endpoints and the
      * trip's clock still follows its actual origin.
      */
    private def plan(rid: Long): (Long, Long) = {
      // coverage: rental i < nGoodLocations starts at location i, so rule 6
      // (unreferenced locations) removes exactly the injected orphans.
      val o = if (rid < c.goodLocations) rid else math.floor(u(41, rid) * c.goodLocations).toLong
      val oa = anchorSeq(locAnchor(o.toInt))
      val destBlock =
        if (u(45, rid) < SameBlockP) oa.block
        else {
          val others = Blocks.filterNot(_ == oa.block)
          if (u(43, rid) < CrossBlock((oa.block, others.head))) others.head else others(1)
        }
      // same-block trips stay in the origin's region with SameRegionP;
      // otherwise choose a region inside the destination block by
      // location share
      val destRegion =
        if (destBlock == oa.block && u(46, rid) < SameRegionP) oa.region
        else {
          val rs = Regions.filter(_.block == destBlock).map(_.code)
          val cA = regionCounts.getOrElse(rs.head, 0L).toDouble
          val cB = regionCounts.getOrElse(rs(1), 0L).toDouble
          if (u(47, rid) < cA / math.max(1.0, cA + cB)) rs.head else rs(1)
        }
      val (at, cdf) = dest(destRegion)
      val dLocs = atAnchor(at(cdf.draw(u(48, rid))))
      val dLoc = dLocs(math.floor(u(49, rid) * dLocs.length).toInt)
      (o, if (u(51, rid) < RoundTripP) o else dLoc)
    }

    /** The [[RentalSchema]] rows of the rentals `ids`, which ascend.
      *
      * Reciprocity: half the free rentals replay the previous rental's
      * planned trip in reverse (commute out in the morning, back in the
      * evening). The paper's graph has directed ≈ 2 x undirected edges —
      * most pairs are travelled both ways — which independent draws cannot
      * produce. Coverage rentals (id < #locations) are exempt to keep rule
      * 6 exact. A good rental starts at its drawn day's midnight plus its
      * drawn seconds.
      */
    def rows(ids: Iterator[Long]): Iterator[Row] = new scala.collection.AbstractIterator[Row] {
      // the plan of rental `lastRid`, which the next id's mirror reads
      private var lastRid = Long.MinValue
      private var last = (0L, 0L)

      def hasNext: Boolean = ids.hasNext

      def next(): Row = {
        val rid = ids.next()
        if (rid < c.goodRentals) good(rid) else dirty(rid)
      }

      private def good(rid: Long): Row = {
        val own = plan(rid)
        val mirror = rid >= c.goodLocations && u(65, rid) < 0.5
        val (o, ret) = if (!mirror) own else (if (lastRid == rid - 1) last else plan(rid - 1)).swap
        lastRid = rid
        last = own
        val dow = locDay(o.toInt).draw(u(53, rid))
        val hour = locHour(o.toInt).draw(u(55, rid))
        val week = math.floor(u(57, rid) * NWeeks).toInt
        val start = midnight(week * 7 + dow) + hour * 3600L + math.floor(u(59, rid) * 60).toLong * 60L
        val dur = 300L + math.floor(u(61, rid) * 35).toLong * 60L
        Row(rid, (math.floor(u(63, rid) * 95).toLong + 1).toInt,
            new Timestamp(start * 1000L), new Timestamp((start + dur) * 1000L), o, ret)
      }
    }

    /** Dirty rental `rid`: its block fails one cleaning rule through one
      * bad endpoint, and it starts `rid` minutes after 2020-06-01T10:00Z.
      */
    private def dirty(rid: Long): Row = {
      val outsideId = c.goodRentals
      val seaId = outsideId + c.outsideRentals
      val noCoordId = seaId + c.seaRentals
      val missingId = noCoordId + c.noCoordRentals
      val danglingId = missingId + c.missingIdRentals
      // k is the rental's rank in its block; the good endpoint draws salt s
      // when the bad one is the rental location, s + 1 when it is the return
      def row(k: Long, bad: Any, badFirst: Boolean, s: Int): Row = {
        val goodLoc = math.floorMod(rid * 48271L + (if (badFirst) s else s + 1) * 1299709L + seed, c.goodLocations)
        val start = DirtyStart + rid * 60000L
        Row(rid, (k % 95 + 1).toInt, new Timestamp(start), new Timestamp(start + 900000L),
            if (badFirst) bad else goodLoc, if (badFirst) goodLoc else bad)
      }
      if (rid < seaId) {
        val k = rid - outsideId
        row(k, c.outsideLocBase + k % c.outsideLocations, k % 2 == 0, 1)
      } else if (rid < noCoordId) {
        val k = rid - seaId
        row(k, c.seaLocBase + k % c.seaLocations, k % 2 == 1, 1)
      } else if (rid < missingId) {
        val k = rid - noCoordId
        row(k, c.noCoordLocBase + k % c.noCoordLocations, k % 2 == 0, 1)
      } else if (rid < danglingId) {
        val k = rid - missingId
        row(k, null, k % 2 == 0, 3)
      } else { // a location id that no location row has
        val k = rid - danglingId
        row(k, c.noCoordLocBase + c.noCoordLocations + 10000000L + k, k % 2 == 0, 5)
      }
    }
  }

  /** Epoch milliseconds of 2020-06-01T10:00:00Z, the dirty rentals' clock origin. */
  private val DirtyStart = Instant.parse("2020-06-01T10:00:00Z").toEpochMilli

  /** Generate the full dataset in `zone`, whose midnights the good rentals
    * start from. See class doc; sf=1 ≈ the paper's volume.
    */
  def generate(spark: SparkSession, sf: Double = 1.0, seed: Long = 7L,
               zone: ZoneId = DefaultZone): MobyData = {
    val c = counts(sf)
    def u(salt: Int, keys: Long*): Double = uniform(seed, salt, keys: _*)

    val anchorSeq = anchors(c)
    val nStations = c.goodStations
    val nHot = c.hotspots

    // ---------------- stations ----------------
    val goodStations = anchorSeq.filter(_.cls == "station")
      .map(a => Row(a.idx, s"Station ${a.region}-${a.idx}", a.lat, a.lon))
    val badStations = Seq(
      Row(nStations, "Station BAD-outside", 51.898, -8.471), // Cork
      Row(nStations + 1, "Station BAD-sea", 53.320, -6.080), // Dublin Bay
      Row(nStations + 2, "Station BAD-nocoord", null, null),
    )

    // ---------------- locations ----------------
    // Location ids below c.stationLocations scatter around stations, the
    // rest around hotspots. The first location of each anchor class maps
    // 1:1 to the anchor, so every anchor owns >= 1 location; the rest
    // follow the zipf-with-weak-tail CDF of anchorWeights.
    val anchorCdf = Map("station" -> new Cdf(anchorWeights("station", nStations)),
                        "hotspot" -> new Cdf(anchorWeights("hotspot", nHot)))
    val nLoc = c.goodLocations.toInt
    val locAnchor = new Array[Int](nLoc) // position in anchorSeq
    val locDay = new Array[Cdf](nLoc)
    val locHour = new Array[Cdf](nLoc)
    // location ids of each anchor in ascending id: a location's index in
    // its anchor's list is its anchor_local rank
    val atAnchor = Array.fill(anchorSeq.size)(mutable.ArrayBuffer.empty[Long])
    val mPerLon = Haversine.metresPerDegLon(53.33)
    val goodLocations = new Array[Row](nLoc)
    val meta = new Array[Row](nLoc)
    for (i <- 0 until nLoc) {
      val id = i.toLong
      val isStation = id < c.stationLocations
      val cls = if (isStation) "station" else "hotspot"
      val classLocal = if (isStation) id else id - c.stationLocations
      val idx =
        if (classLocal < (if (isStation) nStations else nHot)) classLocal
        else anchorCdf(cls).draw(u(11, id)).toLong
      val g = (if (isStation) idx else nStations + idx).toInt // anchorSeq: stations, then hotspots
      val a = anchorSeq(g)
      val sigma = if (isStation) 16.0 else 18.0
      val lat = a.lat + normal(seed, 21, id) * sigma / Haversine.MetresPerDegLat
      val lon = a.lon + normal(seed, 23, id) * sigma / mPerLon
      val archetype =
        if (u(31, id) < DominantArchetypeP) a.archetype
        else Archetype.All(math.floor(u(33, id) * 3).toInt)
      val hourArchetype = archetype match {
        case Archetype.Commuter =>
          if (u(35, hashString(cls), idx) < 0.5) "commuter-am" else "commuter-pm"
        case Archetype.Leisure =>
          if (u(37, hashString(cls), idx) < 0.5) "leisure-mid" else "leisure-eve"
        case other => other
      }
      locAnchor(i) = g
      locDay(i) = DayCdf(archetype)
      locHour(i) = HourCdf(hourArchetype)
      atAnchor(g) += id
      goodLocations(i) = Row(id, lat, lon)
      meta(i) = Row(id, cls, idx, a.region, a.block, archetype)
    }

    val regionCounts: Map[String, Long] =
      locAnchor.groupBy(anchorSeq(_).region).map { case (region, at) => region -> at.length.toLong }

    val badLocations = {
      def jit(k: Long, s: Int): Double = (((k * 2654435761L + s * 40503L + seed) % 1000) - 500) / 1e6
      val orphan = (0L until c.orphanLocations).map { k =>
        Row(c.orphanLocBase + k, 53.3475 + jit(k, 1) * 4, -6.2610 + jit(k, 2) * 4)
      }
      val outside = (0L until c.outsideLocations).map { k =>
        Row(c.outsideLocBase + k, 52.661 + jit(k, 3), -8.630 + jit(k, 4))
      }
      val sea = (0L until c.seaLocations).map { k =>
        Row(c.seaLocBase + k, 53.315 + jit(k, 5) * 20, -6.082 + jit(k, 6) * 10)
      }
      val noCoord = (0L until c.noCoordLocations).map { k =>
        if (k % 2 == 0) Row(c.noCoordLocBase + k, null, -6.26 + jit(k, 7))
        else Row(c.noCoordLocBase + k, 53.34 + jit(k, 8), null)
      }
      orphan ++ outside ++ sea ++ noCoord
    }

    // ---------------- rentals ----------------
    // drawn in the tasks, from samplers shipped once
    val sc = spark.sparkContext
    val sampler = sc.broadcast(new Rentals(seed, c, anchorSeq, locAnchor, locDay, locHour,
      atAnchor.map(_.toArray), regionCounts, destinations(c, anchorSeq), midnights(zone)))
    val rentals = sc.range(0, c.totalRentals, 1, sc.defaultParallelism).mapPartitions(ids => sampler.value.rows(ids))

    MobyData(spark, goodStations ++ badStations, goodLocations.toSeq ++ badLocations, rentals, meta.toSeq, zone)
  }
}

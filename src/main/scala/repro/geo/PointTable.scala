package repro.geo

import org.apache.spark.sql.Row

/** The one point format of the driver geometry, from the cleaning rules to
  * HAC and every nearest search: point k is `ids(k)` at (`lats(k)`,
  * `lons(k)`), in degrees, with the ids strictly ascending.
  */
final case class PointTable(ids: Array[Long], lats: Array[Double], lons: Array[Double]) {
  require(lats.length == ids.length && lons.length == ids.length, "point columns of unequal length")
  require(ids.indices.drop(1).forall(k => ids(k - 1) < ids(k)), "point ids must be strictly ascending")
  def size: Int = ids.length

  /** The points k with `keep(k)`, in their order. */
  def subset(keep: Int => Boolean): PointTable = {
    val ks = Array.range(0, size).filter(keep)
    PointTable(ks.map(ids(_)), ks.map(lats(_)), ks.map(lons(_)))
  }
}

object PointTable {
  /** The points of `rows`, with the id in column 0: one sort by id, then one pass. */
  def ofRows(rows: Array[Row], lat: Int, lon: Int): PointTable = {
    val (sorted, n) = (rows.sortBy(_.getLong(0)), rows.length)
    val (ids, lats, lons) = (new Array[Long](n), new Array[Double](n), new Array[Double](n))
    for (k <- 0 until n) {
      val r = sorted(k)
      ids(k) = r.getLong(0); lats(k) = r.getDouble(lat); lons(k) = r.getDouble(lon)
    }
    PointTable(ids, lats, lons)
  }
}

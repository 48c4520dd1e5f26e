package repro.community

import scala.collection.mutable

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
object Louvain {

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
    var current = edges
    // node -> community at the finest level
    var mapping: Map[Long, Long] = build(edges).nodes.map(v => v -> v).toMap
    var levels = 0
    var improved = true
    while (improved) {
      val g = build(current)
      val (comm, didImprove) = oneLevel(g)
      improved = didImprove
      if (didImprove) {
        levels += 1
        mapping = mapping.view.mapValues(c => comm(c)).toMap
        current = contract(g, comm)
      }
    }
    // canonicalise community ids to the min member id
    val byComm = mapping.groupBy(_._2).view.mapValues(_.keys.min).toMap
    val finalMap = mapping.view.mapValues(byComm).toMap
    LouvainResult(finalMap, Modularity.local(edges, finalMap), levels)
  }
}

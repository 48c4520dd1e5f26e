package repro.community

import java.util.Arrays

/** Exact sequential Louvain (Blondel et al., J. Stat. Mech. 2008).
  *
  * Standard two-phase algorithm: local moving, then contraction of each
  * community into one node; repeat until a level moves no node. Local
  * moving visits the nodes in ascending id order, sweep after sweep, until
  * a sweep moves none. A node's candidates are its neighbours' communities,
  * scanned in ascending community id order. The best starts as the node's
  * own community, and a candidate replaces it only if its modularity gain
  * exceeds the best gain so far by more than 1e-12. So a node moves only
  * on an improvement of more than 1e-12, and of candidates whose gains tie
  * the smallest community id wins. Result community ids are the least
  * member id.
  *
  * Inside, a node is its position `0 until n` among the ascending ids, and
  * a community is labelled by the position of a node. Contraction numbers
  * the communities in label order, so each level visits its nodes in the
  * order of their labels' ids, and maps every edge's endpoints through
  * that numbering without merging edges: each level has the input's edges
  * and weights, and a community's internal edges are its self-loops. Every
  * sum of local moving runs in an order fixed by the positions and the
  * input edge order, never by a hash table. Q is [[Modularity.local]] of
  * the result.
  *
  * Input edges are unordered pairs (src <= dst, weight) with self-loops
  * and repeated pairs allowed, matching [[Modularity]]'s convention.
  */
object Louvain {

  final case class LouvainResult(community: Map[Long, Long], modularity: Double, levels: Int)

  /** Adjacency over the nodes `0 until start.length - 1`: row v is `nbr`
    * and `a` from start(v) until start(v + 1), in edge order. An edge has
    * one entry in each endpoint's row and a self-loop one entry of 2w, so
    * that, as in [[Modularity]], A(v, v) = 2·w_self.
    */
  private final case class Rows(start: Array[Int], nbr: Array[Int], a: Array[Double])

  /** The rows of the edges (src(e), dst(e), w(e)) over the nodes 0 until n. */
  private def rows(n: Int, src: Array[Int], dst: Array[Int], w: Array[Double]): Rows = {
    val start = new Array[Int](n + 1)
    src.indices.foreach { e => start(src(e)) += 1; if (dst(e) != src(e)) start(dst(e)) += 1 }
    (1 to n).foreach(v => start(v) += start(v - 1))
    val (nbr, a) = (new Array[Int](start(n)), new Array[Double](start(n)))
    // filled from the back, so that start(v) ends at row v's first entry
    def put(v: Int, u: Int, x: Double): Unit = { start(v) -= 1; nbr(start(v)) = u; a(start(v)) = x }
    src.indices.reverse.foreach { e =>
      if (src(e) == dst(e)) put(src(e), src(e), 2 * w(e))
      else { put(src(e), dst(e), w(e)); put(dst(e), src(e), w(e)) }
    }
    Rows(start, nbr, a)
  }

  /** Local moving over `r`: each node's community, labelled by a node
    * position, or None if no node moved.
    */
  private def move(r: Rows): Option[Array[Int]] = {
    val n = r.start.length - 1
    val k = new Array[Double](n)
    (0 until n).foreach(v => (r.start(v) until r.start(v + 1)).foreach(i => k(v) += r.a(i)))
    val twoM = k.sum
    val (comm, tot) = (Array.range(0, n), k.clone())
    // weight from the visited node to each neighbouring community (its
    // self-loop excluded), and the communities it touches, which a
    // zero-weight edge does too
    val (nbrW, seen, touched) = (new Array[Double](n), new Array[Boolean](n), new Array[Int](n))
    // one sweep over the nodes in position order; true if any node moved
    def sweep(): Boolean = {
      var moved = false
      var v = 0
      while (v < n) {
        var t = 0; var i = r.start(v)
        while (i < r.start(v + 1)) {
          val c = comm(r.nbr(i))
          if (r.nbr(i) != v) { if (!seen(c)) { seen(c) = true; touched(t) = c; t += 1 }; nbrW(c) += r.a(i) }
          i += 1
        }
        Arrays.sort(touched, 0, t)
        val cv = comm(v)
        tot(cv) -= k(v)
        // gain of joining community c, less terms common to every c
        var best = cv; var bestGain = nbrW(cv) - tot(cv) * k(v) / twoM
        var j = 0
        while (j < t) {
          val c = touched(j)
          val gain = nbrW(c) - tot(c) * k(v) / twoM
          if (c != cv && gain > bestGain + 1e-12) { best = c; bestGain = gain }
          nbrW(c) = 0.0; seen(c) = false; j += 1
        }
        tot(best) += k(v)
        if (best != cv) { comm(v) = best; moved = true }
        v += 1
      }
      moved
    }
    val movedEver = sweep()
    if (movedEver) while (sweep()) ()
    Option.when(movedEver)(comm)
  }

  /** Run Louvain to convergence. */
  def run(edges: Seq[(Long, Long, Double)]): LouvainResult = {
    require(edges.nonEmpty, "empty graph")
    require(edges.forall { case (s, d, _) => s <= d }, "edges must be unordered (src <= dst)")
    val ids = (edges.map(_._1) ++ edges.map(_._2)).toArray.distinct.sorted
    val w = edges.map(_._3).toArray
    // each input node's community at the current level
    val fine = Array.range(0, ids.length)
    // the number of levels that move a node; each contracts its
    // communities into the next level's nodes
    def levels(n: Int, src: Array[Int], dst: Array[Int], done: Int): Int =
      move(rows(n, src, dst, w)).fold(done) { comm =>
        // rank(c): the labels in use below c, so the communities keep their labels' order
        val rank = new Array[Int](n + 1)
        comm.foreach(c => rank(c + 1) = 1)
        (1 to n).foreach(c => rank(c) += rank(c - 1))
        val next = comm.map(rank(_))
        fine.mapInPlace(next(_))
        levels(rank(n), src.map(next(_)), dst.map(next(_)), done + 1)
      }
    val at = (id: Long) => Arrays.binarySearch(ids, id)
    val nLevels = levels(ids.length, edges.map(e => at(e._1)).toArray, edges.map(e => at(e._2)).toArray, 0)
    val least = new Array[Int](ids.length)
    fine.indices.reverse.foreach(v => least(fine(v)) = v)
    val community = fine.indices.map(v => ids(v) -> ids(least(fine(v)))).toMap
    LouvainResult(community, Modularity.local(edges, community), nLevels)
  }
}

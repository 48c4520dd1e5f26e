package repro.community

/** Newman modularity (paper eq. 2) for undirected weighted graphs.
  *
  * Convention used throughout this repo: an edge list of *unordered*
  * pairs (src <= dst, weight), self-loops included once. In adjacency
  * terms A(i,j) = A(j,i) = w for i != j and A(i,i) = 2·w_self, so
  * 2m = Σ_ij A(i,j), k_i = Σ_j A(i,j), and
  * Q = (1/2m) Σ_ij [A(i,j) − k_i·k_j/2m] δ(c_i, c_j).
  */
object Modularity {

  /** Q over edge triples (src, dst, w) with src <= dst. */
  def local(edges: Seq[(Long, Long, Double)], community: Map[Long, Long]): Double = {
    require(edges.forall { case (s, d, _) => s <= d }, "edges must be unordered (src <= dst)")
    val twoM = edges.map { case (_, _, w) => 2 * w }.sum
    if (twoM == 0) return 0.0
    val k = scala.collection.mutable.HashMap.empty[Long, Double].withDefaultValue(0.0)
    edges.foreach { case (s, d, w) => k(s) += w; k(d) += w }
    val sumIn = scala.collection.mutable.HashMap.empty[Long, Double].withDefaultValue(0.0)
    edges.foreach { case (s, d, w) => if (community(s) == community(d)) sumIn(community(s)) += 2 * w }
    val sumTot = scala.collection.mutable.HashMap.empty[Long, Double].withDefaultValue(0.0)
    k.foreach { case (v, kv) => sumTot(community(v)) += kv }
    val cs = sumTot.keySet ++ sumIn.keySet
    cs.iterator.map { c =>
      sumIn(c) / twoM - math.pow(sumTot(c) / twoM, 2)
    }.sum
  }
}

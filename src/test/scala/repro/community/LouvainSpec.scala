package repro.community

import repro.{Oracle, SparkSpec}

/** Tests for the sequential Louvain implementation. */
class LouvainSpec extends SparkSpec {

  private def clique(ids: Seq[Long], w: Double = 1.0): Seq[(Long, Long, Double)] =
    for { i <- ids.indices; j <- i + 1 until ids.size } yield (ids(i), ids(j), w)

  /** Ring of k cliques of size s, adjacent cliques joined by one edge. */
  private def ringOfCliques(k: Int, s: Int): Seq[(Long, Long, Double)] = {
    val cliques = (0 until k).map(c => clique((0 until s).map(i => (c * s + i).toLong)))
    val bridges = (0 until k).map { c =>
      val a = (c * s).toLong
      val b = (((c + 1) % k) * s + 1).toLong
      (math.min(a, b), math.max(a, b), 1.0)
    }
    cliques.flatten ++ bridges
  }

  test("two cliques joined by one edge split into two communities") {
    val edges = clique(Seq(1L, 2L, 3L, 4L)) ++ clique(Seq(5L, 6L, 7L, 8L)) :+ (4L, 5L, 1.0)
    val r = Louvain.run(edges)
    val comms = r.community.values.toSet
    assert(comms.size === 2)
    assert(Set(1L, 2L, 3L, 4L).map(r.community) === Set(r.community(1L)))
    assert(Set(5L, 6L, 7L, 8L).map(r.community) === Set(r.community(5L)))
    assert(r.modularity > 0.3)
  }

  test("single clique stays one community") {
    val r = Louvain.run(clique(Seq(1L, 2L, 3L, 4L, 5L)))
    assert(r.community.values.toSet.size === 1)
  }

  test("ring of 8 cliques of 5: each clique becomes one community") {
    val edges = ringOfCliques(8, 5)
    val r = Louvain.run(edges)
    val byClique = (0 until 8).map { c =>
      (0 until 5).map(i => r.community((c * 5 + i).toLong)).toSet
    }
    byClique.foreach(s => assert(s.size === 1, "each clique internally coherent"))
    assert(r.community.values.toSet.size === 8)
    assert(r.modularity > 0.7)
  }

  test("modularity returned matches Modularity.local on the assignment") {
    val edges = ringOfCliques(4, 4)
    val r = Louvain.run(edges)
    assert(math.abs(r.modularity - Modularity.local(edges, r.community)) < 1e-12)
  }

  test("weighted dominance: strong edges define the communities") {
    // path 1-2-3-4 where 1-2 and 3-4 are heavy, 2-3 light
    val edges = Seq((1L, 2L, 10.0), (2L, 3L, 0.1), (3L, 4L, 10.0))
    val r = Louvain.run(edges)
    assert(r.community(1L) === r.community(2L))
    assert(r.community(3L) === r.community(4L))
    assert(r.community(1L) !== r.community(3L))
  }

  test("deterministic across repeated runs") {
    val edges = ringOfCliques(5, 4)
    val a = Louvain.run(edges)
    val b = Louvain.run(edges)
    assert(a.community === b.community)
    assert(a.modularity === b.modularity)
  }

  test("self-loops do not break the algorithm") {
    val edges = clique(Seq(1L, 2L, 3L)) ++ clique(Seq(4L, 5L, 6L)) ++
      Seq((3L, 4L, 0.5), (1L, 1L, 2.0), (5L, 5L, 1.0))
    val r = Louvain.run(edges)
    assert(r.community(1L) === r.community(2L))
    assert(r.community(4L) === r.community(5L))
    assert(r.community(1L) !== r.community(4L))
  }

  test("isolated self-loop node keeps its own community") {
    val edges = clique(Seq(1L, 2L, 3L)) :+ (9L, 9L, 1.0)
    val r = Louvain.run(edges)
    assert(r.community(9L) === 9L)
    assert(r.community.keySet === Set(1L, 2L, 3L, 9L))
  }

  test("community ids are canonicalised to the min member id") {
    val edges = clique(Seq(10L, 11L, 12L)) ++ clique(Seq(20L, 21L, 22L)) :+ (12L, 20L, 0.1)
    val r = Louvain.run(edges)
    assert(r.community(10L) === 10L)
    assert(r.community(11L) === 10L)
    assert(r.community(20L) === 20L)
  }

  test("empty edge list is rejected") {
    intercept[IllegalArgumentException] { Louvain.run(Seq.empty) }
  }

  test("directed pairs are rejected") {
    intercept[IllegalArgumentException] { Louvain.run(Seq((2L, 1L, 1.0))) }
  }

  test("two-node graph merges into one community") {
    val r = Louvain.run(Seq((1L, 2L, 1.0)))
    assert(r.community(1L) === r.community(2L))
  }

  test("Louvain never returns worse modularity than the singleton partition") {
    val rnd = new scala.util.Random(5)
    (1 to 10).foreach { _ =>
      val n = 5 + rnd.nextInt(20)
      val edges = (for {
        i <- 1L to n.toLong; j <- i + 1 to n.toLong
        if rnd.nextDouble() < 0.25
      } yield (i, j, 1.0 + rnd.nextInt(3).toDouble)).toSeq
      if (edges.nonEmpty) {
        val r = Louvain.run(edges)
        val nodes = edges.flatMap(e => Seq(e._1, e._2)).distinct
        val singleton = nodes.map(v => v -> v).toMap
        assert(r.modularity >= Modularity.local(edges, singleton) - 1e-12)
      }
    }
  }

  test("levels counter increments on non-trivial structure") {
    val r = Louvain.run(ringOfCliques(6, 4))
    assert(r.levels >= 1)
  }

  test("an exact modularity-gain tie goes to the smallest candidate community id") {
    // heavy pairs 2-4 and 3-5, and node 1 tied to 2 and 3 by equal edges.
    // Once the pairs have formed, node 1 gains bitwise-equally by joining
    // community 4 (2 and 4) or community 5 (3 and 5), and joins 4
    val edges = Seq((1L, 2L, 1.0), (1L, 3L, 1.0), (2L, 4L, 10.0), (3L, 5L, 10.0))
    val r = Louvain.run(edges)
    assert(r.community === Map(1L -> 1L, 2L -> 1L, 4L -> 1L, 3L -> 3L, 5L -> 3L))
  }

  /** A seeded random graph over non-contiguous ids: planted blocks, then
    * self-loops and repeated pairs. Weights are integer, real, tenths,
    * integer with zeros, or one tenth for every edge: its ties are exact,
    * as with integers, but its sums round, so tied gains can differ by
    * less than the 1e-12 margin.
    */
  private def randomGraph(rnd: scala.util.Random): Seq[(Long, Long, Double)] = {
    val n = 2 + rnd.nextInt(40)
    val ids = Iterator.continually(rnd.nextInt(2000000) - 1000000L).distinct.take(n).toArray.sorted
    val blocks = 1 + rnd.nextInt(5)
    val (pIn, pOut) = (0.2 + 0.7 * rnd.nextDouble(), 0.2 * rnd.nextDouble())
    val (kind, tenth) = (rnd.nextInt(5), (1 + rnd.nextInt(9)) / 10.0)
    def weight(): Double = kind match {
      case 0 => 1.0 + rnd.nextInt(4)
      case 1 => 3 * rnd.nextDouble()
      case 2 => (1 + rnd.nextInt(10)) / 10.0
      case 3 => if (rnd.nextInt(4) == 0) 0.0 else 1.0 + rnd.nextInt(3)
      case _ => tenth
    }
    val pairs = for {
      i <- 0 until n; j <- i + 1 until n
      if rnd.nextDouble() < (if (i % blocks == j % blocks) pIn else pOut)
    } yield (ids(i), ids(j), weight())
    val loops = ids.toSeq.filter(_ => rnd.nextInt(8) == 0).map(v => (v, v, weight()))
    val base = if (pairs.isEmpty) Seq((ids(0), ids(1), weight())) else pairs
    val repeats = Seq.fill(rnd.nextInt(4))(base(rnd.nextInt(base.size))).map { case (a, b, _) => (a, b, weight()) }
    base ++ loops ++ repeats
  }

  test("Louvain.run equals the map-based oracle on 240 seeded random graphs, edges as drawn and shuffled") {
    val rnd = new scala.util.Random(22)
    val allZero = Seq((3L, 9L, 0.0), (9L, 40L, 0.0), (40L, 40L, 0.0), (3L, 40L, 0.0))
    val graphs = allZero +: Seq.fill(239)(randomGraph(rnd))
    // the zero weights, self-loops and repeated pairs occur
    assert(graphs.count(_.exists(_._3 == 0.0)) > 20)
    assert(graphs.count(_.exists(e => e._1 == e._2)) > 150)
    assert(graphs.count(g => g.map(e => (e._1, e._2)).distinct.size < g.size) > 120)
    for ((edges, g) <- graphs.zipWithIndex; order <- Seq(edges, rnd.shuffle(edges))) {
      val (got, want) = (Louvain.run(order), Oracle.MapLouvain.run(order))
      withClue(s"graph $g, ${order.size} edges: ") {
        assert(got.community === want.community)
        assert(got.levels === want.levels)
        assert(java.lang.Double.doubleToRawLongBits(got.modularity) ===
                 java.lang.Double.doubleToRawLongBits(want.modularity))
      }
    }
  }
}

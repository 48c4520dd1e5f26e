package repro

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._
import org.scalatest.funsuite.AnyFunSuite

/** Checks over the program's source text. */
class SourceSpec extends AnyFunSuite {

  private def scalaFiles(dir: String): Seq[Path] = {
    val stream = Files.walk(Paths.get(dir))
    try stream.iterator.asScala.filter(_.toString.endsWith(".scala")).toVector
    finally stream.close()
  }

  /** file:line: token for each line of the program (`src/main/scala` and
    * `jobs/`) that contains one of `banned`.
    */
  private def programHits(banned: Seq[String]): Seq[String] =
    for ((at, line) <- programLines; b <- banned if line.contains(b)) yield s"$at: $b"

  /** (file:line, text) of each line of the program. */
  private lazy val programLines: Seq[(String, String)] = {
    val files = scalaFiles("src/main/scala") ++ scalaFiles("jobs")
    assert(files.size > 10, s"found only ${files.size} source files")
    for (f <- files; (line, n) <- Files.readAllLines(f).asScala.zipWithIndex) yield (s"$f:${n + 1}", line)
  }

  // Spark parses a SQL string with its ANTLR grammar; a cold JVM pays for
  // loading and warming that parser on the first call
  test("the program parses no SQL strings: no fromDDL, string casts, expr, selectExpr or sql") {
    val hits = programHits(Seq("fromDDL(", ".cast(\"", "expr(", "selectExpr(", ".sql("))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // the first read of a session's conf builds its whole Spark SQL session
  // state, which the program otherwise never uses: the zone is an input
  test("the program reads no session conf and touches no session state") {
    val hits = programHits(Seq("spark.conf", ".conf.get(", "sessionState"))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // a literal map column finds a key by scanning its entries, so a lookup
  // per row costs the map's size: two lookups per row over 62 k rows and a
  // 14 k-entry map took 2.5 s, against 0.5 s through a Scala UDF over the
  // same map and 0.9 s through two sort-merge joins, on 4 cores
  test("the program builds no literal map columns: no typedLit") {
    val hits = programHits(Seq("typedLit("))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // the trips travel as one TemporalGraphs.TripTable from the cleaning job
  // to Louvain; a map keyed by boxed (src, dst, day, hour) tuples held a
  // key per trip, since almost no two trips share one
  test("the program keys no map by boxed (src, dst, day, hour) tuples") {
    val hits = programHits(Seq("(Long, Long, Int, Int)"))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // the points travel as one repro.geo.PointTable from the cleaning rules
  // to HAC and every nearest search; boxed (id, lat, lon) tuples, and the
  // unzip3 that turns them into columns, were a second format of the same
  // points
  test("the program holds no boxed (id, lat, lon) point tuples and no unzip3") {
    val hits = programHits(Seq("(Long, Double, Double)", "unzip3"))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // the nodes have one numbering from the cleaning job to Louvain's input:
  // trips carry node positions, so a count per node is an array and a count
  // per node pair one sort of packed keys. The harness-facing
  // Map[Long, Long] of CommunityAnalysis.summarize is outside this rule, and
  // Louvain has the rule below
  test("repro.core and repro.data key no map by (Long, Long) and call no groupMapReduce") {
    val scoped = Seq("src/main/scala/repro/core/", "src/main/scala/repro/data/")
    val hits = programHits(Seq("groupMapReduce", "Map[(Long, Long)"))
      .filter(h => scoped.exists(h.startsWith))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // Louvain runs over node positions in arrays at every level: a hash
  // table would box every id and key, and its iteration order would set
  // the order of Louvain's sums
  test("Louvain names no HashMap, no Map[(Long, Long) and no groupBy") {
    val hits = programHits(Seq("HashMap", "Map[(Long, Long)", "groupBy"))
      .filter(_.startsWith("src/main/scala/repro/community/Louvain.scala"))
    assert(hits.isEmpty, hits.mkString("\n"))
  }

  // Algorithm 1 takes its close pairs from SpatialGrid.pairs and Rule 4's
  // distances from Haversine.nearest, so every distance in repro.core comes
  // from one of the two exact searches; and no mutable record holds a
  // score or a count there
  test("repro.core names no Haversine.metres and declares no var") {
    val declaresVar = """\bvar\s""".r
    val hits = programLines.filter(_._1.startsWith("src/main/scala/repro/core/")).collect {
      case (at, line) if line.contains("Haversine.metres(") => s"$at: Haversine.metres("
      case (at, line) if declaresVar.findFirstIn(line).nonEmpty => s"$at: var"
    }
    assert(hits.isEmpty, hits.mkString("\n"))
  }
}

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

  // Spark parses a SQL string with its ANTLR grammar; a cold JVM pays for
  // loading and warming that parser on the first call
  test("the program parses no SQL strings: no fromDDL, string casts, expr, selectExpr or sql") {
    val files = scalaFiles("src/main/scala") ++ scalaFiles("jobs")
    assert(files.size > 10, s"found only ${files.size} source files")
    val banned = Seq("fromDDL(", ".cast(\"", "expr(", "selectExpr(", ".sql(")
    val hits = for {
      f <- files
      (line, n) <- Files.readAllLines(f).asScala.zipWithIndex
      b <- banned if line.contains(b)
    } yield s"$f:${n + 1}: $b"
    assert(hits.isEmpty, hits.mkString("\n"))
  }
}

package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Pipeline
import repro.core.TemporalGraphs.{Granularity, TDay, THour, TNull}
import repro.report.PaperTables

/** The paper's Tables I–VI, each rendered from one pipeline run. Table
  * `k` is `All(k - 1)`; a renderer computes only its own table.
  */
object Tables {
  type Table = (SparkSession, Pipeline.Result) => String

  val All: Seq[Table] = Seq(
    (_, res) => PaperTables.tableI(res.report),
    (_, res) => PaperTables.tableII(res.candidate.stats),
    (_, res) => PaperTables.tableIII(res.selected.stats),
    community(TNull), community(TDay), community(THour))

  private def community(g: Granularity): Table =
    (spark, res) => PaperTables.community(g, Pipeline.communities(spark, res.selected, g).summary)

  /** Runs the pipeline as job `name` on `args` ([sf] [seed]) and prints
    * the tables numbered `tables`, a blank line between two.
    */
  def print(name: String, args: Array[String], tables: Int*): Unit =
    JobUtil.run(name, args)((spark, res) => println(tables.map(k => All(k - 1)(spark, res)).mkString("\n\n")))
}

/** spark-submit entrypoints, one per paper table.
  *
  * Usage: spark-submit --class repro.jobs.TableI <jar> [sf] [seed]
  */
object TableI { def main(args: Array[String]): Unit = Tables.print("moby-table-1", args, 1) }

/** Table II: candidate graph statistics after HAC. */
object TableII { def main(args: Array[String]): Unit = Tables.print("moby-table-2", args, 2) }

/** Table III: selected graph after Algorithm 1 + redirection. */
object TableIII { def main(args: Array[String]): Unit = Tables.print("moby-table-3", args, 3) }

/** Table IV: Louvain communities on G_Basic. */
object TableIV { def main(args: Array[String]): Unit = Tables.print("moby-table-4", args, 4) }

/** Table V: Louvain communities on G_Day. */
object TableV { def main(args: Array[String]): Unit = Tables.print("moby-table-5", args, 5) }

/** Table VI: Louvain communities on G_Hour. */
object TableVI { def main(args: Array[String]): Unit = Tables.print("moby-table-6", args, 6) }

/** Convenience: run the full evaluation (all six tables) in one session. */
object AllTables { def main(args: Array[String]): Unit = Tables.print("moby-all-tables", args, 1 to 6: _*) }

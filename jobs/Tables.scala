package repro.jobs

import repro.core.Pipeline
import repro.core.TemporalGraphs.{TDay, THour, TNull}
import repro.report.PaperTables

/** spark-submit entrypoints, one per paper table.
  *
  * Usage: spark-submit --class repro.jobs.TableI <jar> [sf] [seed]
  */
object TableI {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-1", args) { (_, res) =>
      println(PaperTables.tableI(res.report))
    }
}

/** Table II: candidate graph statistics after HAC. */
object TableII {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-2", args) { (_, res) =>
      println(PaperTables.tableII(res.candidate.stats))
    }
}

/** Table III: selected graph after Algorithm 1 + redirection. */
object TableIII {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-3", args) { (_, res) =>
      println(PaperTables.tableIII(res.selected.stats))
    }
}

/** Table IV: Louvain communities on G_Basic. */
object TableIV {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-4", args) { (spark, res) =>
      println(PaperTables.community(TNull, Pipeline.communities(spark, res.selected, TNull).summary))
    }
}

/** Table V: Louvain communities on G_Day. */
object TableV {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-5", args) { (spark, res) =>
      println(PaperTables.community(TDay, Pipeline.communities(spark, res.selected, TDay).summary))
    }
}

/** Table VI: Louvain communities on G_Hour. */
object TableVI {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-table-6", args) { (spark, res) =>
      println(PaperTables.community(THour, Pipeline.communities(spark, res.selected, THour).summary))
    }
}

/** Convenience: run the full evaluation (all six tables) in one session. */
object AllTables {
  def main(args: Array[String]): Unit =
    JobUtil.run("moby-all-tables", args) { (spark, res) =>
      println(PaperTables.tableI(res.report)); println()
      println(PaperTables.tableII(res.candidate.stats)); println()
      println(PaperTables.tableIII(res.selected.stats))
      for (g <- Seq(TNull, TDay, THour)) {
        println()
        println(PaperTables.community(g, Pipeline.communities(spark, res.selected, g).summary))
      }
    }
}

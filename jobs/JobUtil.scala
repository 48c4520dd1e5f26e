package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Pipeline

/** Shared plumbing for the spark-submit entrypoints. Each job accepts
  * optional args: [sf] [seed] (defaults 1.0 and 7).
  */
object JobUtil {

  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "32"))
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def config(args: Array[String]): Pipeline.Config = Pipeline.Config(
    sf = args.headOption.map(_.toDouble).getOrElse(1.0),
    seed = args.lift(1).map(_.toLong).getOrElse(7L))

  def run(name: String, args: Array[String])(body: (SparkSession, Pipeline.Result) => Unit): Unit = {
    val spark = session(name)
    try {
      val cfg = config(args)
      val res = Pipeline.run(spark, cfg)
      body(spark, res)
    } finally spark.stop()
  }
}

package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so every join (the semi-joins of
  * the cleaned rentals view, and the tests' own anti-joins and oracle
  * inputs) runs as a shuffled sort-merge join. With broadcasting on, a join's plan follows the
  * estimated and, under adaptive execution, measured sizes of its sides,
  * and at test scale nearly every side would broadcast: the tests would
  * check only that plan, never the sort-merge one larger inputs get.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Number of Spark jobs `body` starts. */
  def jobsStarted(body: => Any): Int = jobsAndShuffle(body)._1

  /** Spark jobs `body` starts and the shuffle bytes its tasks write. A
    * marker job then drains the listener: events reach a listener in
    * order, and a task's end is posted before its job's result returns, so
    * once the listener has seen the marker start, every job and task
    * `body` started has been counted.
    */
  def jobsAndShuffle(body: => Any): (Int, Long) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val drained = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(SparkSpec.Marker) != null)) drained.countDown()
        else jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setLocalProperty(SparkSpec.Marker, "drain")
      try sc.parallelize(Seq(1), 1).count()
      finally sc.setLocalProperty(SparkSpec.Marker, null)
      assert(drained.await(60, TimeUnit.SECONDS), "the listener never saw the marker job")
      (jobs.get, shuffleBytes.get)
    } finally sc.removeSparkListener(listener)
  }
}

object SparkSpec {
  private val Marker = "repro.jobsStarted.marker"

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}

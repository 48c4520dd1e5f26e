package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so every join (the tests' own
  * anti-joins and oracle inputs) runs as a shuffled sort-merge join. With
  * broadcasting on, a join's plan follows the estimated and, under
  * adaptive execution, measured sizes of its sides, and at test scale
  * nearly every side would broadcast: the tests would check only that
  * plan, never the sort-merge one larger inputs get.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Number of Spark jobs `body` starts. */
  def jobsStarted(body: => Any): Int = jobsAndShuffle(body)._1

  /** Spark jobs `body` starts and the shuffle bytes its tasks write. */
  def jobsAndShuffle(body: => Any): (Int, Long) = {
    val jobs = new AtomicInteger
    val shuffleBytes = new AtomicLong
    observe(body)(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    })
    (jobs.get, shuffleBytes.get)
  }

  /** Number of Spark SQL queries `body` runs: the SQL executions it starts. */
  def sqlExecutions(body: => Any): Int = {
    val executions = new AtomicInteger
    observe(body)(new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => executions.incrementAndGet()
        case _ =>
      }
    })
    executions.get
  }

  /** Runs `body` with `listener` added, then a marker job, and removes the
    * listener once every event `body` caused has reached it: events reach
    * a listener in order, and a task's end is posted before its job's
    * result returns, so once the marker job's start is in, every earlier
    * job, task and query is. The marker job's start is not passed on, and
    * it writes no shuffle.
    */
  private def observe(body: => Any)(listener: SparkListener): Unit = {
    val sc = spark.sparkContext
    val drained = new CountDownLatch(1)
    val marked = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(SparkSpec.Marker) != null)) drained.countDown()
        else listener.onJobStart(e)
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = listener.onTaskEnd(e)
      override def onOtherEvent(e: SparkListenerEvent): Unit = listener.onOtherEvent(e)
    }
    sc.addSparkListener(marked)
    try {
      body
      sc.setLocalProperty(SparkSpec.Marker, "drain")
      try sc.parallelize(Seq(1), 1).count()
      finally sc.setLocalProperty(SparkSpec.Marker, null)
      assert(drained.await(60, TimeUnit.SECONDS), "the listener never saw the marker job")
    } finally sc.removeSparkListener(marked)
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

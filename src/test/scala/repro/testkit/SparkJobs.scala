package repro.testkit

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts Spark jobs with a `SparkListener`: a deterministic measure of
  * a call's cost, unlike its wall time.
  */
object SparkJobs {
  /** `body`'s result and the number of Spark jobs it started. */
  def count[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val a = body
      ListenerBusDrain(sc)
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}

package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * a test's listener has seen the jobs of a finished call. Lives in
  * Spark's package because the listener bus is package-private.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}

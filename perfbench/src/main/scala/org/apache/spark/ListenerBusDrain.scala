package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so
  * the benchmark's listeners have seen a finished operation's jobs and
  * query progress before it reads them. Lives in Spark's package because
  * the listener bus is package-private.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}

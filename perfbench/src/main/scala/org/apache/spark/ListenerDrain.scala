package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so counts
  * read from a listener cover every job submitted so far. The bus is
  * package-private to Spark, hence this file's package. */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

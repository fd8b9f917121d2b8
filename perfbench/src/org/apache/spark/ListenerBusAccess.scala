package org.apache.spark

/** Lets the benchmark wait until every queued listener event has been
  * delivered, so per-layer Spark counters are complete when read. The
  * listener bus is `private[spark]`, hence this object's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

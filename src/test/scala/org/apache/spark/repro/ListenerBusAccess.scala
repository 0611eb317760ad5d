package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. Listener
  * events arrive asynchronously; draining the bus before reading a
  * listener's counters makes them cover every job that has finished.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private. Listener
  * events arrive asynchronously; draining the bus before reading counters
  * attributes every finished task to the span that ran it.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

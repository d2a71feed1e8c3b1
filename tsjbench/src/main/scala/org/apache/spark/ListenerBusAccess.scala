package org.apache.spark

/** Lets the benchmark wait until the listener bus has delivered every event
  * of a finished job, so a span's stage metrics are complete when read.
  * `listenerBus` is `private[spark]`, hence the package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

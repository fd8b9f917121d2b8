package repro.perfbench

import scala.collection.mutable

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted}

/** One timed interval around a call into a pipeline layer. `parent` names the
  * enclosing span; spans of one pipeline run share `runId`.
  */
final case class Span(name: String, startNs: Long, endNs: Long, parent: String, runId: String) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spark work attributed to one layer: completed stages, their tasks and the
  * shuffle bytes they wrote. Counts repeat exactly for the same input.
  */
final case class Counters(stages: Long, tasks: Long, shuffleBytes: Long)

/** Attributes every completed stage to the job group that was set when its
  * job was submitted. [[Tracer.span]] sets the job group to the span name.
  */
final class LayerCounters extends SparkListener {
  private val groupOfStage = mutable.Map.empty[Int, String]
  private val byGroup      = mutable.Map.empty[String, Counters]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .foreach(g => e.stageIds.foreach(groupOfStage(_) = g))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    for (g <- groupOfStage.get(info.stageId) if info.failureReason.isEmpty) {
      val c = byGroup.getOrElse(g, Counters(0, 0, 0))
      val written = Option(info.taskMetrics).fold(0L)(_.shuffleWriteMetrics.bytesWritten)
      byGroup(g) = Counters(c.stages + 1, c.tasks + info.numTasks, c.shuffleBytes + written)
    }
  }

  def get(group: String): Counters = synchronized(byGroup.getOrElse(group, Counters(0, 0, 0)))
}

/** Records spans in memory around calls into the program's layers and tags
  * the Spark jobs each call submits with the span's name.
  */
final class Tracer(sc: SparkContext) {
  val counters = new LayerCounters
  sc.addSparkListener(counters)

  private val recorded = mutable.ArrayBuffer.empty[Span]
  def spans: Seq[Span] = recorded.toSeq

  def span[A](name: String, parent: String, runId: String)(body: => A): A = {
    sc.setJobGroup(name, name)
    val t0 = System.nanoTime()
    try body
    finally {
      recorded += Span(name, t0, System.nanoTime(), parent, runId)
      sc.clearJobGroup()
    }
  }

  /** Counters of the named layer once all listener events are delivered. */
  def countersOf(layer: String): Counters = {
    ListenerBusAccess.drain(sc)
    counters.get(layer)
  }

  /** Spans as JSON lines, one object per span, times relative to the first. */
  def toJsonLines: String = {
    val origin = recorded.headOption.fold(0L)(_ => recorded.map(_.startNs).min)
    recorded.map { s =>
      s"""{"name":"${s.name}","start_s":${(s.startNs - origin) / 1e9},""" +
        s""""end_s":${(s.endNs - origin) / 1e9},"parent":"${s.parent}","run_id":"${s.runId}"}"""
    }.mkString("", "\n", "\n")
  }
}

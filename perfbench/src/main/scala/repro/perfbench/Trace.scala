package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentLinkedQueue

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import org.apache.spark.sql.streaming.StreamingQueryListener

/** JVM counters read around each traced call. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  /** Heap in use after a full collection, in MB. */
  def retainedMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }
}

/** One traced call: a named interval with its parent, the operation it
  * belongs to, and the bytes this thread allocated and the GC time spent
  * while it ran.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long, gcMs: Long) {
  def durNs: Long = endNs - startNs
}

/** Named intervals around calls into the program's layers. */
trait Spans {
  def span[A](name: String)(body: => A): A
}

/** Spans that record nothing: the same calls at their untraced cost. */
object NoSpans extends Spans {
  def span[A](name: String)(body: => A): A = body
}

/** Spans recorded from the benchmark's own code around calls into the
  * program's layers; kept in memory and written out when the run ends.
  * Single-threaded: spans nest on the calling thread.
  */
final class Tracer extends Spans {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var currentOp = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val a0 = Jvm.allocatedBytes(); val g0 = Jvm.gcMillis(); val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      done += Span(id, parent, currentOp, name, t0, t1, Jvm.allocatedBytes() - a0, Jvm.gcMillis() - g0)
      stack = stack.tail
    }
  }

  def spans: Seq[Span] = done.toSeq

  /** Per span name: total self time in ms (duration minus the time its
    * child spans cover) and total allocated MB.
    */
  def selfTimes: Map[String, (Double, Double)] = {
    val childNs = done.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durNs).sum }
    done.groupBy(_.name).map { case (name, ss) =>
      val selfNs = ss.map(s => s.durNs - childNs.getOrElse(s.id, 0L)).sum
      name -> (selfNs / 1e6, ss.map(_.allocBytes).sum / 1e6)
    }
  }

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    val lines = done.sortBy(_.id).map { s =>
      s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":${Json.str(s.name)},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"alloc_bytes":${s.allocBytes},"gc_ms":${s.gcMs}}"""
    }
    java.nio.file.Files.write(path, lines.asJava)
  }
}

/** Spark-side counters from a `SparkListener` and a
  * `StreamingQueryListener`: jobs, stages, tasks with their intervals and
  * executor run time, shuffle bytes, and each trigger's `durationMs`.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  import SparkCounters.Task

  private val jobStarts = new java.util.concurrent.ConcurrentHashMap[Int, Long]()
  val jobMs = new ConcurrentLinkedQueue[java.lang.Long]()
  val tasks = new ConcurrentLinkedQueue[Task]()
  @volatile var stages = 0
  val triggers = new ConcurrentLinkedQueue[java.util.Map[String, java.lang.Long]]()

  override def onJobStart(e: SparkListenerJobStart): Unit = jobStarts.put(e.jobId, e.time)
  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobStarts.get(e.jobId)).foreach(t0 => jobMs.add(e.time - t0))
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized { stages += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    val shuffle = if (m == null) 0L
      else m.shuffleWriteMetrics.bytesWritten + m.shuffleReadMetrics.totalBytesRead
    tasks.add(Task(e.taskInfo.launchTime, e.taskInfo.finishTime,
      if (m == null) 0L else m.executorRunTime, shuffle))
  }

  val streaming: StreamingQueryListener = new StreamingQueryListener {
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit =
      if (e.progress.numInputRows > 0) triggers.add(e.progress.durationMs)
  }

  /** Counters of everything since the last reset, once delivered. */
  def snapshot(): SparkCounters.Snapshot = {
    ListenerBusDrain(sc)
    val ts = tasks.asScala.toSeq
    SparkCounters.Snapshot(jobMs.size, stages, ts.size, ts.map(_.runMs).sum,
      ts.map(_.shuffleBytes).sum, jobMs.asScala.map(_.toDouble).toSeq,
      SparkCounters.unionMs(ts.map(t => (t.launch, t.finish))),
      triggers.asScala.toSeq.map(_.asScala.map { case (k, v) => k -> v.toDouble }.toMap))
  }

  def reset(): Unit = {
    ListenerBusDrain(sc)
    jobStarts.clear(); jobMs.clear(); tasks.clear(); triggers.clear()
    synchronized { stages = 0 }
  }
}

object SparkCounters {
  final case class Task(launch: Long, finish: Long, runMs: Long, shuffleBytes: Long)

  final case class Snapshot(jobs: Int, stages: Int, tasks: Int, taskRunMs: Long, shuffleBytes: Long,
                            jobMs: Seq[Double], taskUnionMs: Long, triggers: Seq[Map[String, Double]])

  /** Length of the union of [start, end) intervals. */
  def unionMs(intervals: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var curStart = Long.MinValue
    var curEnd = Long.MinValue
    for ((s, e) <- intervals.sortBy(_._1)) {
      if (s > curEnd) {
        if (curEnd > curStart) covered += curEnd - curStart
        curStart = s; curEnd = e
      } else curEnd = math.max(curEnd, e)
    }
    if (curEnd > curStart) covered += curEnd - curStart
    covered
  }
}

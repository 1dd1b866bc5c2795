package repro.radsbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart,
  SparkListenerStageCompleted, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spark job, stage and task counts plus per-partition task time, as seen by
  * one listener between two drains.
  *
  * @param machineBusyS task seconds per partition index, over stages with
  *                     exactly `m` partitions (partition t == machine t)
  */
final case class SparkCounts(
    jobs: Long, stages: Long, tasks: Long, taskS: Double, machineBusyS: Array[Double]) {
  def +(o: SparkCounts): SparkCounts = SparkCounts(jobs + o.jobs, stages + o.stages,
    tasks + o.tasks, taskS + o.taskS, machineBusyS.zip(o.machineBusyS).map { case (a, b) => a + b })
}

/** Counts every job, completed stage and task of the application, except
  * those of its own marker jobs.
  *
  * Listener events arrive asynchronously, so a count is read only after
  * [[drain]]: it submits a tagged one-task marker job and blocks until the
  * listener sees that job end. The listener bus delivers events in order,
  * so by then every event of the work before the marker has been counted.
  * No sleeps and no timing races.
  */
final class BenchListener(m: Int) extends SparkListener {
  private val MarkerKey = "radsbench.marker"
  private val ended = new LinkedBlockingQueue[String]()
  private val markerJobs = mutable.Map[Int, String]()
  private val markerStages = mutable.Set[Int]()
  private val stageTasks = mutable.Map[Int, Int]()
  private var jobs, stages, tasks = 0L
  private var taskMs = 0L
  private var busyMs = new Array[Long](m)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).map(_.getProperty(MarkerKey)).orNull
    e.stageInfos.foreach(s => stageTasks(s.stageId) = s.numTasks)
    if (tag != null) { markerJobs(e.jobId) = tag; markerStages ++= e.stageIds }
    else jobs += 1
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    if (!markerStages.contains(e.stageInfo.stageId)) stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId)) {
      val d = e.taskInfo.duration
      tasks += 1; taskMs += d
      if (stageTasks.get(e.stageId).contains(m)) busyMs(e.taskInfo.partitionId) += d
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val tag = synchronized(markerJobs.remove(e.jobId))
    tag.foreach(ended.put)
  }

  /** Wait until every event posted before this call has been delivered. */
  def drain(sc: SparkContext): Unit = {
    val tag = java.util.UUID.randomUUID().toString
    sc.setLocalProperty(MarkerKey, tag)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(MarkerKey, null)
    var seen = false
    while (!seen) {
      val t = ended.poll(120, TimeUnit.SECONDS)
      if (t == null) throw new IllegalStateException("listener bus did not deliver the marker job's end")
      seen = t == tag
    }
  }

  /** Drain, then return and reset the counts. */
  def take(sc: SparkContext): SparkCounts = {
    drain(sc)
    synchronized {
      val c = SparkCounts(jobs, stages, tasks, taskMs / 1e3, busyMs.map(_ / 1e3))
      jobs = 0; stages = 0; tasks = 0; taskMs = 0; busyMs = new Array[Long](m)
      c
    }
  }
}

/** One traced call: a layer's public function, called by the benchmark. */
final case class Span(
    workload: String, query: String, group: Int, round: Int, machine: Int, phase: String,
    startNs: Long, endNs: Long, allocBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory; [[write]] puts them in a TSV file at the end. */
final class Tracer(workload: String) {
  val spans = mutable.ArrayBuffer[Span]()
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def span[A](query: String, group: Int, round: Int, machine: Int, phase: String)(body: => A): A = {
    val tid = Thread.currentThread().getId
    val a0  = threads.getThreadAllocatedBytes(tid)
    val t0  = System.nanoTime()
    val r   = body
    val t1  = System.nanoTime()
    spans += Span(workload, query, group, round, machine, phase, t0, t1,
      threads.getThreadAllocatedBytes(tid) - a0)
    r
  }

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val origin = spans.headOption.map(_.startNs).getOrElse(0L)
    val lines = "workload\tquery\tgroup\tround\tmachine\tphase\tstart_ns\tend_ns\talloc_bytes" +:
      spans.map(s => Seq(s.workload, s.query, s.group, s.round, s.machine, s.phase,
        s.startNs - origin, s.endNs - origin, s.allocBytes).mkString("\t"))
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Stats {
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Total collection time of every GC MXBean, in seconds. */
  def gcSeconds(): Double = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3
  }

  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den
}

package repro.core

import java.util.UUID
import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Pattern, Planner, Queries}
import scala.collection.mutable

/** The engine's Spark orchestration: one job for init and one per region
  * group, job labels, no persisted RDD left behind, and communication
  * accumulators that count every request exactly once.
  */
class EngineJobsSuite extends SparkSpec {
  import EngineJobsSuite.JobLog

  private def checkProp(p: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p)
    assert(res.passed, res.status.toString)
  }

  private val pl      = GraphGen.powerLaw(150, 3, 24, seed = 2)
  private val pg      = PartitionedGraph.metis(pl, 3, seed = 7)
  private val oneG    = Rads.Config(keepEmbeddings = false)
  private val severalG = Rads.Config(budgetBytes = 2000, keepEmbeddings = false)

  private def ctxOf(q: Pattern, cfg: Rads.Config) =
    PlanCtx(Planner.bestPlan(q, cfg.rho), Automorphism.symmetryBreaking(q))

  /** Largest number of region groups on one machine, from init run without Spark. */
  private def maxGroups(pg: PartitionedGraph, q: Pattern, cfg: Rads.Config): Int = {
    val ctx = ctxOf(q, cfg)
    (0 until pg.m).map(t => Phases.init(ctx, t, AdjBlock(t, pg.adjBlock(t)), pg.owner,
      cfg.budgetBytes, cfg.smeEnabled, cfg.seed).groups.size).max
  }

  /** The jobs `body` submits. */
  private def jobsOf(body: => Unit): Vector[JobLog.Job] = {
    val sc  = spark.sparkContext
    val log = new JobLog
    sc.addSparkListener(log)
    try { log.take(sc); body; log.take(sc) }
    finally sc.removeSparkListener(log)
  }

  test("counting mode submits one job for init and one per region group, holding one group's states") {
    val groups = maxGroups(pg, Queries.q4, severalG)
    assert(groups >= 2, s"the budget must split a machine's candidates, got $groups group(s)")
    val jobs = jobsOf(Rads.enumerate(spark, pg, Queries.q4, severalG))
    assert(jobs.size <= groups + 1, jobs.mkString(", "))
    assert(jobs.map(_.description) == "q4 init" +: (0 until groups).map(g => s"q4 g=$g"))
    // §6: a group's job may see the adjacency, its input state and its own
    // expanded and filtered state per round persisted, and nothing older
    val rounds = ctxOf(Queries.q4, severalG).numRounds
    jobs.tail.foreach(j => assert(j.persisted <= 2 * rounds + 2, j))
  }

  test("jobs carry the engine's labels and the caller's local properties come back unchanged") {
    val sc    = spark.sparkContext
    val props = Seq("spark.job.description", "spark.jobGroup.id", "radsbench.marker")
    sc.setJobDescription("caller")
    sc.setJobGroup("callers-group", "caller")
    sc.setLocalProperty("radsbench.marker", "caller-marker")
    try {
      val before = props.map(sc.getLocalProperty)
      val jobs   = jobsOf(Rads.enumerate(spark, pg, Queries.q2, oneG.copy(keepEmbeddings = true)))
      assert(jobs.map(_.description) == Vector("q2 init", "q2 g=0", "q2 gather"))
      assert(props.map(sc.getLocalProperty) == before)
    } finally {
      sc.clearJobGroup()
      sc.setJobDescription(null)
      sc.setLocalProperty("radsbench.marker", null)
    }
  }

  test("no persisted RDD outlives a run: one region group, several, and kept embeddings") {
    assert(maxGroups(pg, Queries.q4, oneG) == 1)
    assert(maxGroups(pg, Queries.q4, severalG) >= 2)
    Seq("one group" -> oneG, "several groups" -> severalG,
        "kept embeddings" -> severalG.copy(keepEmbeddings = true)).foreach { case (name, cfg) =>
      val before = spark.sparkContext.getPersistentRDDs.keySet
      val run    = Rads.enumerate(spark, pg, Queries.q4, cfg)
      assert(run.count > 0, name)
      assert(spark.sparkContext.getPersistentRDDs.keySet == before, name)
    }
  }

  test("property: the communication accumulators agree with the per-machine stats") {
    val genCase = for {
      n      <- Gen.choose(20, 60)
      e      <- Gen.choose(n, 3 * n)
      seed   <- Gen.choose(1L, 10000L)
      q      <- Gen.oneOf(Queries.q1, Queries.q2, Queries.q3, Queries.q4, Queries.q5, Queries.q8, Queries.tq1)
      m      <- Gen.choose(1, 4)
      hashed <- Gen.oneOf(false, true)
      budget <- Gen.oneOf(64.0, 2000.0, 1e9)
    } yield (GraphGen.gnm(n, e, seed), q, m, hashed, budget)
    var multiGroup, fetched, verified = 0
    checkProp(Prop.forAll(genCase) { case (g, q, m, hashed, budget) =>
      val pg  = if (hashed) PartitionedGraph.hashed(g, m) else PartitionedGraph.metis(g, m, seed = 7)
      val cfg = Rads.Config(budgetBytes = budget, keepEmbeddings = false)
      val run = Rads.enumerate(spark, pg, q, cfg)
      val c   = run.metrics.comm
      val s   = run.metrics.machines
      if (maxGroups(pg, q, cfg) > 1) multiGroup += 1
      if (s.fetchedVertices > 0) fetched += 1
      if (s.verifyEdges > 0) verified += 1
      val want = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false).count
      (c.fetchReqBytes == 8 * s.fetchedVertices && c.verifyReqBytes == 16 * s.verifyEdges &&
        c.verifyRespBytes == s.verifyEdges && run.count == want) :|
        s"${q.name} m=$m hashed=$hashed Φ=$budget: $c vs fetched ${s.fetchedVertices}, " +
        s"verified ${s.verifyEdges}; ${run.count} results, want $want"
    }, 20)
    assert(multiGroup > 0 && fetched > 0 && verified > 0,
      s"sweep must cover several region groups ($multiGroup), fetchV ($fetched) and verifyE ($verified)")
  }
}

object EngineJobsSuite {

  object JobLog {
    /** @param persisted RDDs in the job's lineage that were persisted when
      *                  it was submitted
      */
    final case class Job(description: String, persisted: Int)
  }

  /** Records every job between two [[take]]s.
    *
    * Listener events arrive asynchronously, so [[take]] submits a one-task
    * job tagged with a marker property and waits, with a timeout, until the
    * listener sees that job end. The listener bus delivers events in order,
    * so by then every earlier job has been recorded. No sleeps. Storage
    * levels are read from the job's result stage, which the scheduler builds
    * when the job is submitted, while the submitting thread waits.
    */
  final class JobLog extends SparkListener {
    private val Marker     = "repro.test.marker"
    private val jobs       = mutable.ArrayBuffer[JobLog.Job]()
    private val markerJobs = mutable.Map[Int, String]()
    private val waiting    = new ConcurrentHashMap[String, CountDownLatch]()

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val props = Option(e.properties)
      props.map(_.getProperty(Marker)).orNull match {
        case null =>
          val lineage = e.stageInfos.maxBy(_.stageId).rddInfos
          jobs += JobLog.Job(props.map(_.getProperty("spark.job.description")).orNull,
            lineage.count(_.storageLevel.isValid))
        case tag  => markerJobs(e.jobId) = tag
      }
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit =
      synchronized(markerJobs.remove(e.jobId)).foreach(tag => Option(waiting.get(tag)).foreach(_.countDown()))

    /** Wait for every job submitted so far, then return and forget them. */
    def take(sc: SparkContext): Vector[JobLog.Job] = {
      val tag   = UUID.randomUUID().toString
      val latch = new CountDownLatch(1)
      waiting.put(tag, latch)
      sc.setLocalProperty(Marker, tag)
      try sc.parallelize(Seq(0), 1).count() finally sc.setLocalProperty(Marker, null)
      try {
        if (!latch.await(60, TimeUnit.SECONDS))
          throw new IllegalStateException("listener bus did not deliver the marker job's end")
      } finally waiting.remove(tag)
      synchronized { val r = jobs.toVector; jobs.clear(); r }
    }
  }
}

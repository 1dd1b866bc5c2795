package repro.radsbench

import java.nio.file.{Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{LocalEnum, Rads}
import repro.graph.PartitionedGraph
import repro.query.Automorphism
import scala.collection.mutable
import scala.util.control.NonFatal

/** The RADS benchmark: runs one workload through `Rads.enumerate` in
  * counting mode and prints its metrics, the last line as one JSON object.
  *
  * {{{
  * Main --workload <name|all> [--seed 7] [--seconds 8] [--trace 0|1]
  *      [--profile bench|full|smoke] [--out .bench_build]
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics; `--trace 1` the per-layer
  * ones, from untraced passes alternating with passes under a
  * [[BenchListener]], and from a [[Replay]] of the engine. Every count, timed or traced, is checked
  * against `LocalEnum.reference`; a mismatch or exception is a failed
  * operation. `--workload all` runs every workload with both trace settings
  * and prints one `result` line each (the smoke self-check uses it).
  *
  * The graph seed comes from `--seed`; the partition seed is fixed at 17 and
  * Spark runs `local[min(4, nproc)]` with [[Workloads.machines]] = 4 logical
  * machines, as in `BenchData`.
  */
object Main {

  final case class Opts(
      workload: String = "",
      seed: Long = 7,
      seconds: Double = 8,
      trace: Boolean = false,
      profile: String = "bench",
      out: String = ".bench_build")

  val partitionSeed = 17L
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  final case class Metric(name: String, unit: String)

  val endToEnd: Seq[Metric] = Seq(
    Metric("wall_s", "s"), Metric("comm_bytes", "B"), Metric("peak_et_bytes", "B"),
    Metric("setup_s", "s"), Metric("success_rate", "ratio"))

  val perLayer: Seq[Metric] = {
    val s = "s"; val c = "count"; val b = "B"; val r = "ratio"
    Seq(
      "graph.gen_s" -> s, "graph.partition_s" -> s, "graph.border_frac" -> r,
      "query.plan_s" -> s, "query.rounds" -> c,
      "core.init.busy_s" -> s, "core.init.max_s" -> s, "core.init.sme_s" -> s, "core.init.group_s" -> s,
      "core.init.sme_cands" -> c, "core.init.dist_cands" -> c, "core.init.groups" -> c,
      "core.fetchv.busy_s" -> s, "core.fetchv.vertices" -> c, "core.fetchv.bytes" -> b,
      "core.fetchv.cache_hits" -> c, "core.fetchv.hit_ratio" -> r,
      "core.expand.busy_s" -> s, "core.expand.max_s" -> s, "core.expand.trie_nodes" -> c,
      "core.expand.evi_keys" -> c, "core.expand.alloc_bytes" -> b,
      "core.verifye.busy_s" -> s, "core.verifye.keys" -> c, "core.verifye.failed" -> c,
      "core.verifye.bytes" -> b, "core.verifye.fail_ratio" -> r,
      "core.filter.busy_s" -> s, "core.filter.max_s" -> s, "core.filter.survive_ratio" -> r,
      "core.filter.alloc_bytes" -> b,
      "core.trie.peak_nodes" -> c, "core.trie.et_bytes_sum" -> b, "core.trie.el_bytes_sum" -> b,
      "core.trie.peak_over_budget" -> r,
      "core.engine.jobs" -> c, "core.engine.stages" -> c, "core.engine.tasks" -> c,
      "core.engine.task_s" -> s, "core.engine.skew" -> r, "core.engine.critical_s" -> s,
      "core.engine.overhead_s" -> s,
      "core.local.floor_s" -> s, "core.local.floor_ratio" -> r,
      "jvm.gc_s" -> s, "trace.overhead_s" -> s,
    ).map { case (n, u) => Metric(n, u) }
  }

  private val usage =
    "usage: Main --workload <" + (Workloads.names :+ "all").mkString("|") + "> [--seed N] " +
      "[--seconds S] [--trace 0|1] [--profile " + Workloads.profiles.mkString("|") + "] [--out DIR]"

  def parse(args: List[String], o: Opts = Opts()): Either[String, Opts] = args match {
    case Nil if o.workload.isEmpty => Left("--workload is required")
    case Nil                       => Right(o)
    case flag :: v :: rest =>
      val next = scala.util.Try(flag match {
        case "--workload" if v == "all" || Workloads.names.contains(v) => Some(o.copy(workload = v))
        case "--seed"           => Some(o.copy(seed = v.toLong))
        case "--seconds" if v.toDouble > 0 => Some(o.copy(seconds = v.toDouble))
        case "--trace" if v == "0" || v == "1" => Some(o.copy(trace = v == "1"))
        case "--profile" if Workloads.profiles.contains(v) => Some(o.copy(profile = v))
        case "--out"            => Some(o.copy(out = v))
        case _                  => None
      }).toOption.flatten
      next.toRight(s"bad argument $flag $v").flatMap(parse(rest, _))
    case flag :: Nil => Left(s"missing value for $flag")
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList) match {
      case Right(o) => o
      case Left(err) => System.err.println(s"$err\n$usage"); sys.exit(2)
    }
    val code =
      try {
        println(s"info profile=${opts.profile} seed=${opts.seed} partition_seed=$partitionSeed " +
          s"nproc=${Runtime.getRuntime.availableProcessors()} local_cores=$cores " +
          s"machines=${Workloads.machines} jvm=${System.getProperty("java.runtime.version")} " +
          s"spark=${org.apache.spark.SPARK_VERSION} seconds=${opts.seconds}")
        if (opts.workload == "all") {
          for (w <- Workloads.names; trace <- Seq(false, true)) {
            val res = new Bench(opts.copy(workload = w, trace = trace)).run()
            println(s"result $w trace=${if (trace) 1 else 0} $res")
          }
        } else println(new Bench(opts).run())
        0
      } catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

object Bench {
  /** One pass over the workload's items: item k took `itemS(k)` seconds and
    * counted `counts(k)` results (-1 if it failed).
    */
  final case class Pass(seconds: Double, itemS: Vector[Double], comm: Long, peakEt: Long, counts: Vector[Long])

  /** Pass time as the sum over items of each item's median time: a GC pause
    * or a slow Spark job in one item of one pass does not move it.
    */
  def passSeconds(ps: Seq[Pass]): Double =
    ps.head.itemS.indices.map(k => Stats.median(ps.map(_.itemS(k)))).sum

  /** Median set-up times of the repetitions. */
  final case class Setup(genS: Double, partitionS: Double, totalS: Double)
}

/** One run of one workload. */
final class Bench(o: Main.Opts) {
  import Bench._
  import Stats._

  private val wl  = Workloads.workload(o.profile, o.workload)
  private val cfg = Rads.Config(budgetBytes = wl.budgetBytes, keepEmbeddings = false)
  private val outDir: Path = Paths.get(o.out).toAbsolutePath
  private var spark: SparkSession = _
  private var pgs: Map[String, PartitionedGraph] = Map.empty
  private var refs: Vector[Long] = Vector.empty
  private var attempted, failed = 0L
  // fewest warm-up and timed passes; the smoke profile checks outputs, not steadiness
  private val (warmMin, timedMin) = if (o.profile == "smoke") (1, 1) else (3, 5)

  def run(): String = {
    val setup = setUp()
    try {
      refs = wl.items.map(it => reference(it)._1)
      // warm-up: JIT and Spark's lazy set-up; pass times still fall after the second pass
      val warm = passesFor(0.75 * o.seconds, warmMin)(pass(None)).map(_._1)
      printPasses("warm-up", warm)
      if (o.trace) report(traced(setup), Main.perLayer)
      else {
        val timedPasses = passesFor(o.seconds, timedMin)(pass(None)).map(_._1)
        printPasses("timed", timedPasses)
        report(Seq(
          "wall_s"        -> passSeconds(timedPasses),
          "comm_bytes"    -> median(timedPasses.map(_.comm.toDouble)),
          "peak_et_bytes" -> median(timedPasses.map(_.peakEt.toDouble)),
          "setup_s"       -> setup.totalS,
          "success_rate"  -> (1.0 - ratio(failed.toDouble, attempted.toDouble))), Main.endToEnd)
      }
    } finally stopSession()
  }

  /** Graph generation, METIS-lite partitioning and Spark session start,
    * seven times; the first, cold repetition and a slow one from host load
    * do not move the medians.
    */
  private def setUp(): Setup = {
    val reps = (0 until 7).map { _ =>
      val gens  = wl.datasets.map(ds => ds -> timed(Workloads.graph(o.profile, ds, o.seed)))
      val parts = gens.map { case (ds, (g, _)) =>
        ds -> timed(PartitionedGraph.metis(g, Workloads.machines, Main.partitionSeed)) }
      pgs = parts.map { case (ds, (pg, _)) => ds -> pg }.toMap
      if (spark != null) stopSession()
      val (s, sparkS) = timed(newSession())
      spark = s
      (gens.map(_._2._2).sum, parts.map(_._2._2).sum, sparkS)
    }
    Setup(median(reps.map(_._1)), median(reps.map(_._2)), median(reps.map(r => r._1 + r._2 + r._3)))
  }

  private def newSession(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${Main.cores}]")
      .appName(s"radsbench-${wl.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def stopSession(): Unit = {
    spark.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }

  private def fail(msg: String): Unit = { failed += 1; System.err.println(s"FAILED ${wl.name}: $msg") }

  private def reference(it: Workloads.Item): (Long, Double) = {
    val (r, s) = timed(LocalEnum.reference(it.query, pgs(it.dataset).graph,
      Automorphism.symmetryBreaking(it.query), keepEmbeddings = false))
    (r.count, s)
  }

  /** Run every item once through `Rads.enumerate` and check its count. With
    * a listener, drain it after each query and sum its counts.
    */
  private def pass(listener: Option[BenchListener]): (Pass, Option[SparkCounts]) = {
    val t0 = System.nanoTime()
    var comm, peak = 0L
    var spk: Option[SparkCounts] = None
    val items = wl.items.zip(refs).map { case (it, ref) =>
      attempted += 1
      val ti = System.nanoTime()
      val count = try {
        val r = Rads.enumerate(spark, pgs(it.dataset), it.query, cfg)
        listener.foreach { l =>
          val c = l.take(spark.sparkContext)
          spk = Some(spk.fold(c)(_ + c))
        }
        if (r.count != ref) fail(s"${it.label}: Rads.enumerate counted ${r.count}, reference $ref")
        comm += r.metrics.comm.totalBytes
        peak = math.max(peak, r.metrics.machines.peakEtBytes)
        r.count
      } catch { case NonFatal(e) => fail(s"${it.label}: $e"); -1L }
      ((System.nanoTime() - ti) / 1e9, count)
    }
    (Pass((System.nanoTime() - t0) / 1e9, items.map(_._1), comm, peak, items.map(_._2)), spk)
  }

  private def printPasses(label: String, ps: Seq[Pass]): Unit = {
    val items = wl.items.indices.map(k => f"${wl.items(k).label}=${median(ps.map(_.itemS(k)))}%.3f")
    println(s"passes ${wl.name} $label " + ps.map(p => f"${p.seconds}%.3f").mkString(" ") +
      s" (item medians ${items.mkString(" ")}; sum " + f"${passSeconds(ps)}%.3f)")
  }

  /** Repeat `f` until `seconds` have passed and it ran at least `minRuns` times. */
  private def passesFor[A](seconds: Double, minRuns: Int)(f: => A): Vector[A] = {
    val out = mutable.ArrayBuffer[A]()
    val t0  = System.nanoTime()
    while (out.size < minRuns || (System.nanoTime() - t0) / 1e9 < seconds) out += f
    out.toVector
  }

  /** The per-layer metrics of one traced run. */
  private def traced(setup: Setup): Seq[(String, Double)] = {
    // Untraced passes alternate with passes under the bench listener (Spark
    // jobs, stages, tasks, task time per machine), so the JIT's drift over a
    // run does not bias trace.overhead_s. The listener is attached only
    // during a traced pass.
    val listener = new BenchListener(Workloads.machines)
    val sc       = spark.sparkContext
    def tracedPass(): (Pass, Option[SparkCounts]) = {
      sc.addSparkListener(listener)
      try {
        listener.take(sc) // discard events queued before the listener was added
        pass(Some(listener))
      } finally sc.removeSparkListener(listener)
    }
    val gc0   = gcSeconds()
    val pairs = passesFor(0.75 * o.seconds, timedMin)((pass(None)._1, tracedPass()))
    val gcPerPass = (gcSeconds() - gc0) / (2 * pairs.size)
    val untraced  = pairs.map(_._1)
    printPasses("timed", untraced)
    printPasses("traced", pairs.map(_._2._1))
    val wall       = passSeconds(untraced)
    val tracedWall = passSeconds(pairs.map(_._2._1))
    val spk        = pairs.last._2._2.getOrElse(
      SparkCounts(0, 0, 0, 0.0, new Array[Double](Workloads.machines)))

    // driver-side replay of R-Meef, checked against the reference and Rads.enumerate
    val tracer     = new Tracer(wl.name)
    val radsCounts = untraced.last.counts
    val replays = wl.items.indices.map { k =>
      val it = wl.items(k)
      attempted += 1
      try {
        val r = Replay.run(tracer, pgs(it.dataset), it, cfg)
        if (r.count != refs(k) || r.count != radsCounts(k))
          fail(s"${it.label}: replay counted ${r.count}, reference ${refs(k)}, Rads.enumerate ${radsCounts(k)}")
        Some(r)
      } catch { case NonFatal(e) => fail(s"${it.label}: replay $e"); None }
    }.flatten
    val floor = wl.items.map(it => reference(it)._2).sum
    tracer.write(outDir.resolve("spans").resolve(s"${wl.name}-seed${o.seed}.tsv"))

    def of(ph: String) = tracer.spans.filter(_.phase == ph)
    def busy(ph: String) = of(ph).map(_.seconds).sum
    def alloc(ph: String) = of(ph).map(_.allocBytes.toDouble).sum
    // per (query, group, round): the slowest machine, as a barrier-synchronised run would wait for it
    def maxS(ph: String) =
      of(ph).groupBy(s => (s.query, s.group, s.round)).valuesIterator.map(_.map(_.seconds).max).sum
    val critical = busy("plan") + Seq("init", "fetchV", "expand", "verifyE", "filter").map(maxS).sum
    def sum(f: Replay.Result => Double) = replays.map(f).sum
    val st = replays.map(_.stats)
    val busyPerMachine = spk.machineBusyS
    val pgList = wl.datasets.map(pgs)

    Seq(
      "graph.gen_s"       -> setup.genS,
      "graph.partition_s" -> setup.partitionS,
      "graph.border_frac" -> ratio(pgList.map(_.borderVertices.map(_.length).sum.toDouble).sum,
                                   pgList.map(_.graph.n.toDouble).sum),
      "query.plan_s" -> busy("plan"),
      "query.rounds" -> sum(_.rounds.toDouble),
      "core.init.busy_s" -> busy("init"),
      "core.init.max_s"  -> maxS("init")) ++
    Option.when(replays.forall(_.smeS.isDefined))("core.init.sme_s" -> sum(_.smeS.get)) ++
    Option.when(replays.forall(_.groupS.isDefined))("core.init.group_s" -> sum(_.groupS.get)) ++
    Seq(
      "core.init.sme_cands"  -> st.map(_.smeCandidates.toDouble).sum,
      "core.init.dist_cands" -> st.map(_.distCandidates.toDouble).sum,
      "core.init.groups"     -> st.map(_.regionGroups.toDouble).sum,
      "core.fetchv.busy_s"     -> busy("fetchV"),
      "core.fetchv.vertices"   -> st.map(_.fetchedVertices.toDouble).sum,
      "core.fetchv.bytes"      -> sum(_.fetchBytes.toDouble),
      "core.fetchv.cache_hits" -> st.map(_.cacheHits.toDouble).sum,
      "core.fetchv.hit_ratio"  -> ratio(st.map(_.cacheHits.toDouble).sum,
                                        st.map(s => (s.cacheHits + s.fetchedVertices).toDouble).sum),
      "core.expand.busy_s"      -> busy("expand"),
      "core.expand.max_s"       -> maxS("expand"),
      "core.expand.trie_nodes"  -> st.map(_.sumEtNodes.toDouble).sum,
      "core.expand.evi_keys"    -> sum(_.verifyKeys.toDouble), // every EVI key is verified once
      "core.expand.alloc_bytes" -> alloc("expand"),
      "core.verifye.busy_s"     -> busy("verifyE"),
      "core.verifye.keys"       -> sum(_.verifyKeys.toDouble),
      "core.verifye.failed"     -> sum(_.verifyFailed.toDouble),
      "core.verifye.bytes"      -> sum(_.verifyBytes.toDouble),
      "core.verifye.fail_ratio" -> ratio(sum(_.verifyFailed.toDouble), sum(_.verifyKeys.toDouble)),
      "core.filter.busy_s"        -> busy("filter"),
      "core.filter.max_s"         -> maxS("filter"),
      "core.filter.survive_ratio" -> ratio(sum(_.leavesKept.toDouble), sum(_.leavesIn.toDouble)),
      "core.filter.alloc_bytes"   -> alloc("filter"),
      "core.trie.peak_nodes"       -> replays.map(_.peakNodes.toDouble).maxOption.getOrElse(0.0),
      "core.trie.et_bytes_sum"     -> st.map(_.sumEtBytes.toDouble).sum,
      "core.trie.el_bytes_sum"     -> st.map(_.sumElBytes.toDouble).sum,
      "core.trie.peak_over_budget" -> st.map(_.peakEtBytes.toDouble).maxOption.getOrElse(0.0) / wl.budgetBytes,
      "core.engine.jobs"       -> spk.jobs.toDouble,
      "core.engine.stages"     -> spk.stages.toDouble,
      "core.engine.tasks"      -> spk.tasks.toDouble,
      "core.engine.task_s"     -> spk.taskS,
      "core.engine.skew"       -> ratio(busyPerMachine.max, busyPerMachine.sum / busyPerMachine.length),
      "core.engine.critical_s" -> critical,
      "core.engine.overhead_s" -> (wall - critical),
      "core.local.floor_s"     -> floor,
      "core.local.floor_ratio" -> ratio(wall, floor),
      "jvm.gc_s"               -> gcPerPass,
      "trace.overhead_s"       -> (tracedWall - wall))
  }

  /** Print every metric by name with its unit, then the result as one JSON line. */
  private def report(values: Seq[(String, Double)], wanted: Seq[Main.Metric]): String = {
    val byName = values.toMap
    val present = wanted.filter(m => byName.contains(m.name))
    wanted.foreach { m =>
      byName.get(m.name) match {
        case Some(v) => println(f"metric ${wl.name}%-13s ${m.name}%-28s ${fmt(v)}%s ${m.unit}")
        case None    => println(f"metric ${wl.name}%-13s ${m.name}%-28s missing")
      }
    }
    val metrics = present.map(m => s""""${m.name}": {"value": ${fmt(byName(m.name))}, "unit": "${m.unit}"}""")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.mkString(", ")}}}"""
  }

  private def fmt(v: Double): String =
    if (v.isWhole && math.abs(v) < 1e15) v.toLong.toString else v.toString
}

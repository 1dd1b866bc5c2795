package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import repro.graph.PartitionedGraph
import repro.query.{ExecutionPlan, Pattern}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Routes machine-id keys to their own partition: machine t == partition t.
  * This is what keeps every cogroup against the per-machine state narrow —
  * the paper's "no shuffle of intermediate results" invariant.
  */
final class MidPartitioner(m: Int) extends Partitioner {
  override def numPartitions: Int = m
  override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  override def equals(other: Any): Boolean = other match {
    case p: MidPartitioner => p.numPartitions == m
    case _                 => false
  }
  override def hashCode(): Int = m
}

/** One machine's partition of the data graph: adjacency of owned vertices. */
final case class AdjBlock(mid: Int, adj: Map[Int, Array[Int]]) {
  def hasEdge(a: Int, b: Int): Boolean =
    adj.get(a).exists(nb => java.util.Arrays.binarySearch(nb, b) >= 0)
}

/** Static, serializable context shared by all R-Meef phases. */
final case class PlanCtx(
    pattern: Pattern,
    sb: Vector[(Int, Int)],
    pivOf: Vector[Int],                    // pivot of unit i
    unitLeaves: Vector[Vector[Int]],       // unit i's leaves, in matching order
    depths: Vector[Int],                   // trie depth after round i
    morder: Vector[Int],                   // matching order (trie level -> pattern vertex)
    pos: Array[Int],                       // pattern vertex -> matching-order position
    checkPartners: Array[Array[Int]],      // per pattern vertex: earlier-matched verification partners
    sbPartners: Array[Array[(Int, Boolean)]], // per later endpoint: (other, otherIsSmaller)
    unitVerifEdges: Vector[Vector[(Int, Int)]], // per round: sibling + cross-unit edges
    startSpan: Int) {
  def numRounds: Int = pivOf.size
  def uStart: Int = pivOf.head
}

object PlanCtx {
  def apply(plan: ExecutionPlan, sb: Vector[(Int, Int)]): PlanCtx = {
    val p      = plan.pattern
    val morder = plan.matchingOrder
    val pos    = Array.fill(p.n)(-1)
    morder.zipWithIndex.foreach { case (u, i) => pos(u) = i }
    val unitLeaves = plan.units.map(u => u.leaves.sortBy(pos))
    val depths = plan.units.indices.map(i => 1 + plan.units.take(i + 1).map(_.leaves.size).sum).toVector
    val verif  = plan.units.indices.map(i => plan.verificationEdges(i)).toVector
    val check  = Array.fill(p.n)(mutable.ArrayBuffer[Int]())
    verif.flatten.foreach { case (a, b) =>
      if (pos(a) < pos(b)) check(b) += a else check(a) += b
    }
    val sbp = Array.fill(p.n)(mutable.ArrayBuffer[(Int, Boolean)]())
    sb.foreach { case (a, b) =>
      if (pos(a) < pos(b)) sbp(b) += ((a, true)) else sbp(a) += ((b, false))
    }
    PlanCtx(p, sb, plan.units.map(_.piv), unitLeaves, depths, morder, pos,
      check.map(_.toArray), sbp.map(_.toArray), verif, p.span(plan.units.head.piv))
  }
}

/** Embeddings of one harvest or of SM-E, `width` ints per row, each row
  * indexed by query vertex.
  */
final class ResultChunk(val width: Int, val rows: Array[Int]) extends Serializable {
  def size: Int = rows.length / width
  def iterator: Iterator[Array[Int]] = rows.grouped(width)
}

/** Per-machine R-Meef state, held in primitive columns so that caching it
  * costs O(arrays). Phases never write a previous state's structures
  * (DESIGN.md deviation D8), so Spark lineage recomputation is always safe.
  */
final class MachineState(
    val mid: Int,
    val groups: Vector[Vector[Int]],
    val trie: EmbeddingTrie,
    val evi: Evi,
    val cache: Map[Int, Array[Int]],
    val resultChunks: List[ResultChunk],
    val stats: MachineStats) extends Serializable {

  /** Distinct foreign, uncached pivot images to fetch for round `i` —
    * the paper's single batched fetchV request (§3.2 Expand).
    */
  def pendingFetch(ctx: PlanCtx, i: Int, owner: Array[Int]): Iterator[Int] = {
    val level = ctx.pos(ctx.pivOf(i))
    val live  = trie.liveMasks(level)
    val vs    = trie.verts(level)
    vs.indices.iterator.collect { case j if live(j) && owner(vs(j)) != mid && !cache.contains(vs(j)) => vs(j) }.distinct
  }

  def eviKeys: Iterator[(Int, Int)] = evi.keys.iterator.map(Evi.unpack)
}

/** Result of one RADS run. */
final case class RadsRun(
    count: Long,
    embeddings: Vector[Array[Int]],
    metrics: RadsMetrics,
    plan: ExecutionPlan)

/** The R-Meef dataflow (§3.2, Appendix B) on Spark.
  *
  * Layout: `m` logical machines == `m` RDD partitions. Per-machine state
  * (embedding trie, EVI, foreign-vertex cache) lives in an
  * `RDD[(mid, MachineState)]` whose partition t is machine t; the adjacency
  * blocks live in an `RDD[(mid, AdjBlock)]` partitioned by
  * [[MidPartitioner]], and every phase zips the two partition by partition.
  * Each round performs at most two small shuffles — the `fetchV` and
  * `verifyE` request/response cycles — while the intermediate results never
  * move, which is the paper's central claim against the join-based systems.
  *
  * Jobs: one for init, which also reports the largest number of region
  * groups on a machine, then one per region group. A group's rounds form one
  * lineage in which every fetchV and verifyE shuffle is a stage barrier, so
  * the machines stay in lock-step with no Spark action between rounds. The
  * group's single action reduces (result count, stats) over its
  * final state. Every round's state is persisted, because both a request
  * shuffle and the next zip read it, and released once the group's action
  * has run: only one region group's tries are held at a time (§6). Keeping
  * embeddings adds one `collect` job at the end.
  */
object RMeefEngine {

  private type States = RDD[(Int, MachineState)]

  def run(
      spark: SparkSession,
      pg: PartitionedGraph,
      ctx: PlanCtx,
      plan: ExecutionPlan,
      budgetBytes: Double = 4L << 20,
      smeEnabled: Boolean = true,
      keepEmbeddings: Boolean = true,
      seed: Long = 99): RadsRun = {

    val sc  = spark.sparkContext
    val m   = pg.m
    val t0  = System.currentTimeMillis()
    val part = new MidPartitioner(m)
    val ownerBc = sc.broadcast(pg.owner)

    val fetchReqB  = sc.longAccumulator("fetchReqBytes")
    val fetchRespB = sc.longAccumulator("fetchRespBytes")
    val verReqB    = sc.longAccumulator("verifyReqBytes")
    val verRespB   = sc.longAccumulator("verifyRespBytes")

    // Persisted RDDs this run still holds; all are released before it returns.
    val held = mutable.ArrayBuffer[RDD[_]]()
    def keep[T](rdd: RDD[T]): RDD[T] = { held += rdd.persist(StorageLevel.MEMORY_ONLY); rdd }
    def release(rdds: Iterable[RDD[_]]): Unit = {
      rdds.foreach(_.unpersist(blocking = false)); held --= rdds
    }

    val adjRdd: RDD[(Int, AdjBlock)] = keep(sc
      .parallelize((0 until m).map(t => (t, AdjBlock(t, pg.adjBlock(t)))), m)
      .partitionBy(part))

    /** Runs `action` as a job described "<query> <what>", then restores the
      * caller's description.
      */
    def labelled[A](what: String)(action: => A): A = {
      val prev = sc.getLocalProperty("spark.job.description")
      sc.setJobDescription(s"${ctx.pattern.name} $what")
      try action finally sc.setJobDescription(prev)
    }

    /** One action over a state: (largest group count, result count, stats). */
    def summary(state: States): (Int, Long, MachineStats) =
      state.map { case (_, st) => (st.groups.size, st.resultChunks.iterator.map(_.size.toLong).sum, st.stats) }
        .reduce { case ((g1, c1, s1), (g2, c2, s2)) => (math.max(g1, g2), c1 + c2, s1 + s2) }

    /** One request/answer cycle: each machine's `requests` (owner, request)
      * go to the owners, are answered against their adjacency blocks, and
      * the (requester, answer) pairs return to the requesters.
      */
    def exchange[Q: ClassTag, A: ClassTag](state: States)(requests: ((Int, MachineState)) => Iterator[(Int, Q)])(
        answer: (AdjBlock, Q) => (Int, A)): RDD[(Int, A)] =
      state.flatMap(requests).partitionBy(part).zipPartitions(adjRdd) { (rIter, aIter) =>
        val block = aIter.next()._2
        rIter.map { case (_, q) => answer(block, q) }
      }.partitionBy(part)

    // -- fetchV cycle: each machine's batched request, answered by the owners --
    def fetchResp(state: States, i: Int): RDD[(Int, (Int, Array[Int]))] =
      exchange(state) { case (mid, st) =>
        st.pendingFetch(ctx, i, ownerBc.value).map(v => (ownerBc.value(v), (mid, v)))
      } { case (block, (reqMid, v)) =>
        fetchReqB.add(8)
        val nb = block.adj.getOrElse(v, Array.empty[Int])
        fetchRespB.add(8L * (1 + nb.length))
        (reqMid, (v, nb))
      }

    // -- verifyE cycle: every EVI key, answered by its first endpoint's owner --
    def verifyResp(state: States): RDD[(Int, ((Int, Int), Boolean))] =
      exchange(state) { case (mid, st) =>
        st.eviKeys.map { case (a, b) => (ownerBc.value(a), (mid, a, b)) }
      } { case (block, (reqMid, a, b)) =>
        verReqB.add(16); verRespB.add(1)
        (reqMid, ((a, b), block.hasEdge(a, b)))
      }

    try {
      // ---- init: candidates, border distance, SM-E, region groups ----
      var state: States = keep(adjRdd.mapValues(block =>
        Phases.init(ctx, block.mid, block, ownerBc.value, budgetBytes, smeEnabled, seed)))
      var result = labelled("init")(summary(state))
      val maxGroups = result._1

      for (g <- 0 until maxGroups) {
        for (i <- 0 until ctx.numRounds) {
          // -- expand: build ECs of P_i into the trie + EVI (round-0 pivots are local) --
          def expand(sIter: Iterator[(Int, MachineState)], aIter: Iterator[(Int, AdjBlock)],
                     fetched: Map[Int, Array[Int]]) = {
            val (mid, st) = sIter.next()
            Iterator((mid, Phases.expand(ctx, st, aIter.next()._2, fetched, ownerBc.value, g, i)))
          }
          val expanded = keep(
            if (i == 0) state.zipPartitions(adjRdd)(expand(_, _, Map.empty))
            else state.zipPartitions(adjRdd, fetchResp(state, i))((s, a, r) => expand(s, a, r.map(_._2).toMap)))
          // -- verifyE + filter (and harvest on the final round) --
          val lastRound = i == ctx.numRounds - 1
          state = keep(expanded.zipPartitions(verifyResp(expanded)) { (sIter, rIter) =>
            val (mid, st) = sIter.next()
            val failed = rIter.collect { case (_, (key, exists)) if !exists => key }.toSet
            Iterator((mid, Phases.filter(ctx, st, failed, harvest = lastRound)))
          })
        }
        result = labelled(s"g=$g")(summary(state))
        release(held.filterNot(r => (r eq adjRdd) || (r eq state)))
      }

      // ---- gather ----
      val embeddings =
        if (keepEmbeddings)
          labelled("gather")(state.flatMap(_._2.resultChunks.iterator.flatMap(_.iterator)).collect().toVector)
        else Vector.empty
      val comm = CommStats(fetchReqB.value, fetchRespB.value, verReqB.value, verRespB.value)
      val (_, count, stats) = result
      RadsRun(count, embeddings,
        RadsMetrics(comm, stats, ctx.numRounds, System.currentTimeMillis() - t0), plan)
    } finally {
      release(held.toVector)
      ownerBc.destroy()
    }
  }
}

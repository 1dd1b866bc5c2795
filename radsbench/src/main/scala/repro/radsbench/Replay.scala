package repro.radsbench

import repro.core.{AdjBlock, LocalEnum, MachineState, MachineStats, Phases, PlanCtx, Rads, RegionGroups}
import repro.graph.PartitionedGraph
import repro.query.{Automorphism, Planner}

/** Driver-side replay of `RMeefEngine.run` for the per-layer trace.
  *
  * It calls the engine's public phase functions in the engine's order, one
  * machine at a time on the calling thread: `Phases.init` per machine, then
  * per (region group, round) `pendingFetch` answered from the owner's
  * `AdjBlock`, `Phases.expand`, `eviKeys` answered with the owner's
  * `AdjBlock.hasEdge`, and `Phases.filter` (harvesting on the last round).
  * Every call is one span. The communication is accounted as the engine
  * does: fetchV 8 B per request and 8 B per id and neighbour in the reply,
  * verifyE 16 B per request and 1 B per reply.
  */
object Replay {

  /** Counts of one query's replay.
    *
    * @param smeS   time of re-calling `LocalEnum.enumerate` with init's
    *               inputs; `None` when the re-call does not reproduce
    *               init's SM-E candidates and count
    * @param groupS time of re-calling `RegionGroups.group` with init's
    *               inputs; `None` when it does not reproduce init's groups
    */
  final case class Result(
      count: Long,
      rounds: Int,
      stats: MachineStats,
      fetchBytes: Long,
      verifyKeys: Long,
      verifyFailed: Long,
      verifyBytes: Long,
      leavesIn: Long,
      leavesKept: Long,
      peakNodes: Long,
      smeS: Option[Double],
      groupS: Option[Double])

  def run(tr: Tracer, pg: PartitionedGraph, item: Workloads.Item, cfg: Rads.Config): Result = {
    val q     = item.label
    val m     = pg.m
    val owner = pg.owner
    val plan  = tr.span(q, -1, -1, -1, "plan")(Planner.bestPlan(item.query, cfg.rho))
    val sb    = tr.span(q, -1, -1, -1, "plan")(Automorphism.symmetryBreaking(item.query))
    val ctx   = tr.span(q, -1, -1, -1, "plan")(PlanCtx(plan, sb))
    val blocks = Array.tabulate(m)(t => AdjBlock(t, pg.adjBlock(t)))

    val st: Array[MachineState] = Array.tabulate(m) { t =>
      tr.span(q, -1, -1, t, "init")(
        Phases.init(ctx, t, blocks(t), owner, cfg.budgetBytes, cfg.smeEnabled, cfg.seed))
    }
    val (smeS, groupS) = recallInit(pg, ctx, blocks, st, cfg)

    var fetchBytes, verifyKeys, verifyFailed = 0L
    var leavesIn, leavesKept, peakNodes = 0L
    val maxGroups = st.map(_.groups.size).max
    for (g <- 0 until maxGroups; i <- 0 until ctx.numRounds) {
      val last = i == ctx.numRounds - 1
      val fetched: Array[Map[Int, Array[Int]]] = Array.tabulate(m) { t =>
        if (i == 0) Map.empty[Int, Array[Int]] // round-0 pivots are local by construction
        else tr.span(q, g, i, t, "fetchV") {
          st(t).pendingFetch(ctx, i, owner)
            .map(v => v -> blocks(owner(v)).adj.getOrElse(v, Array.empty[Int])).toMap
        }
      }
      for (t <- 0 until m) {
        fetchBytes += fetched(t).valuesIterator.map(nb => 16L + 8L * nb.length).sum
        st(t) = tr.span(q, g, i, t, "expand")(
          Phases.expand(ctx, st(t), blocks(t), fetched(t), owner, g, i))
        peakNodes = math.max(peakNodes, st(t).trie.nodeCount)
      }
      val failed: Array[Set[(Int, Int)]] = Array.tabulate(m) { t =>
        tr.span(q, g, i, t, "verifyE") {
          st(t).eviKeys.filterNot { case (a, b) => blocks(owner(a)).hasEdge(a, b) }.toSet
        }
      }
      for (t <- 0 until m) {
        verifyKeys += st(t).evi.size
        verifyFailed += failed(t).size
        leavesIn += st(t).trie.resultCount
        val harvested = st(t).stats.distEmbeddings
        st(t) = tr.span(q, g, i, t, "filter")(Phases.filter(ctx, st(t), failed(t), harvest = last))
        leavesKept += (if (last) st(t).stats.distEmbeddings - harvested else st(t).trie.resultCount)
      }
    }

    Result(
      count = st.iterator.map(_.resultChunks.iterator.map(_.size.toLong).sum).sum,
      rounds = ctx.numRounds,
      stats = st.map(_.stats).reduce(_ + _),
      fetchBytes = fetchBytes, verifyKeys = verifyKeys, verifyFailed = verifyFailed, verifyBytes = 17L * verifyKeys,
      leavesIn = leavesIn, leavesKept = leavesKept, peakNodes = peakNodes,
      smeS = smeS, groupS = groupS)
  }

  /** Re-derive init's SM-E roots and memory estimate from its inputs, and
    * time `LocalEnum.enumerate` and `RegionGroups.group` on them. Returns
    * `None` for a time whose call does not reproduce what init produced.
    */
  private def recallInit(
      pg: PartitionedGraph,
      ctx: PlanCtx,
      blocks: Array[AdjBlock],
      st: Array[MachineState],
      cfg: Rads.Config): (Option[Double], Option[Double]) = {
    val p  = ctx.pattern
    val bd = pg.borderDistance
    var smeS, groupS = 0.0
    var smeOk, groupOk = true
    for (t <- 0 until pg.m) {
      val block   = blocks(t)
      val isLocal = (v: Int) => pg.owner(v) == t
      val adjOf: Int => Array[Int] = v => if (isLocal(v)) block.adj(v) else Array.empty[Int]
      val local   = block.adj.keys.toArray.sorted
      val cands   = local.filter(v => block.adj(v).length >= p.degree(ctx.uStart))
      val (smeCands, distCands) = cands.partition(v => bd(v) >= ctx.startSpan)
      val (sme, s1) = Stats.timed(LocalEnum.enumerate(p, adjOf, ctx.sb, smeCands.toVector,
        rootVertex = ctx.uStart, keepEmbeddings = true, accept = isLocal))
      val estPerRoot =
        if (smeCands.nonEmpty) math.max(20.0, 20.0 * sme.partials / smeCands.length)
        else {
          val avgDeg = if (local.nonEmpty) block.adj.valuesIterator.map(_.length).sum.toDouble / local.length else 1.0
          20.0 * math.max(2.0, avgDeg) * p.n
        }
      val (groups, s2) = Stats.timed(
        RegionGroups.group(distCands.toVector, adjOf, estPerRoot, cfg.budgetBytes, cfg.seed + t))
      smeS += s1; groupS += s2
      smeOk &&= smeCands.length == st(t).stats.smeCandidates && sme.count == st(t).stats.smeEmbeddings
      groupOk &&= groups == st(t).groups
    }
    (Option.when(smeOk)(smeS), Option.when(groupOk)(groupS))
  }
}

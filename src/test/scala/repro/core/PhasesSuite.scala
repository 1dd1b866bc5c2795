package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Pattern, Planner, Queries}

/** R-Meef's phase functions driven on the calling thread in the engine's
  * order (no Spark): the columnar trie's invariants after every step, and
  * the lineage safety that lets Spark recompute a phase from its input.
  */
class PhasesSuite extends AnyFunSuite {
  import EmbeddingTrieSuite.livePrefixes

  private def checkProp(p: Prop, n: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), p)
    assert(res.passed, res.status.toString)
  }

  /** Runs every region group and round of `q` on `pg`, answering fetchV and
    * verifyE from the owners' blocks. Before every expand and filter it calls
    * `step` with the phase's name, its input state and a thunk that runs the
    * phase on that input. Returns the number of results.
    */
  private def drive(pg: PartitionedGraph, q: Pattern, budget: Double)(
      step: (String, MachineState, () => MachineState) => Unit): Long = {
    val ctx    = PlanCtx(Planner.bestPlan(q, 1.0), Automorphism.symmetryBreaking(q))
    val owner  = pg.owner
    val blocks = Array.tabulate(pg.m)(t => AdjBlock(t, pg.adjBlock(t)))
    val st     = Array.tabulate(pg.m)(t => Phases.init(ctx, t, blocks(t), owner, budget, smeEnabled = true, seed = 5))
    for (g <- 0 until st.map(_.groups.size).max; i <- 0 until ctx.numRounds; t <- 0 until pg.m) {
      val in      = st(t)
      val fetched = if (i == 0) Map.empty[Int, Array[Int]]
                    else in.pendingFetch(ctx, i, owner).map(v => v -> blocks(owner(v)).adj(v)).toMap
      val expand  = () => Phases.expand(ctx, in, blocks(t), fetched, owner, g, i)
      step("expand", in, expand)
      val mid     = expand()
      val failed  = mid.eviKeys.filterNot { case (a, b) => blocks(owner(a)).hasEdge(a, b) }.toSet
      val filter  = () => Phases.filter(ctx, mid, failed, harvest = i == ctx.numRounds - 1)
      step("filter", mid, filter)
      st(t) = filter()
    }
    st.iterator.map(_.resultChunks.iterator.map(_.size.toLong).sum).sum
  }

  private val genCase = for {
    n      <- Gen.choose(20, 50)
    e      <- Gen.choose(n, 3 * n)
    seed   <- Gen.choose(1L, 10000L)
    q      <- Gen.oneOf(Queries.q1, Queries.q2, Queries.q3, Queries.q4, Queries.q5, Queries.q8, Queries.tq1)
    m      <- Gen.choose(1, 4)
    budget <- Gen.oneOf(64.0, 1e9)
  } yield (GraphGen.gnm(n, e, seed), q, m, budget)

  test("property: after every expand and filter the trie counts exactly the live paths and their prefixes") {
    checkProp(Prop.forAll(genCase) { case (g, q, m, budget) =>
      var broken = Option.empty[String]
      val count = drive(PartitionedGraph.metis(g, m, seed = 7), q, budget) { (phase, _, run) =>
        val t = run().trie
        val siblingsDistinct = (0 until t.depth).forall { l =>
          val sibs = t.parents(l).zip(t.verts(l)); sibs.distinct.length == sibs.length
        }
        val ok = t.nodeCount == livePrefixes(t).size && t.resultCount == t.results.size &&
          t.bytes >= 8L * t.nodeCount && siblingsDistinct
        if (!ok && broken.isEmpty) broken = Some(s"$phase broke the trie invariants on ${q.name}")
      }
      val want = LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q), keepEmbeddings = false).count
      (broken.isEmpty && count == want) :| broken.getOrElse(s"${q.name}: $count results, want $want")
    }, 25)
  }

  test("init's SM-E split agrees with the graph's border distance under metis and hash partitioning") {
    val g = GraphGen.grid(9, 9)
    var smeSeen = 0
    for (q <- Seq(Queries.q1, Queries.q2, Queries.q4); m <- Seq(2, 3);
         pg <- Seq(PartitionedGraph.metis(g, m, seed = 3), PartitionedGraph.hashed(g, m))) {
      val ctx = PlanCtx(Planner.bestPlan(q, 1.0), Automorphism.symmetryBreaking(q))
      (0 until pg.m).foreach { t =>
        val st   = Phases.init(ctx, t, AdjBlock(t, pg.adjBlock(t)), pg.owner, 1e9, smeEnabled = true, seed = 5)
        val want = pg.localVertices(t).count(v =>
          g.neighbors(v).length >= q.degree(ctx.uStart) && pg.borderDistance(v) >= ctx.startSpan)
        assert(st.stats.smeCandidates == want, s"${q.name} m=$m machine $t")
        smeSeen += want
      }
    }
    assert(smeSeen > 0, "some machine has SM-E candidates")
  }

  test("lineage safety: re-running expand or filter on the same input gives the same output and leaves the input intact") {
    val g = GraphGen.powerLaw(120, 3, 20, seed = 4)
    var checked = Set.empty[String]
    def snapshot(s: MachineState) = (s.trie.nodeCount, s.trie.resultCount, s.trie.results.map(_.toSeq).toVector,
      s.trie.verts.map(_.toSeq).toSeq, s.trie.dead.toSeq, s.eviKeys.toVector, s.resultChunks.map(_.rows.toSeq),
      s.stats)
    Seq(Queries.q4, Queries.q5).foreach { q =>
      drive(PartitionedGraph.metis(g, 3, seed = 2), q, 1e9) { (phase, in, run) =>
        val before = snapshot(in)
        val (a, b) = (run(), run())
        assert(snapshot(a) == snapshot(b), s"${q.name} $phase is not deterministic")
        assert(snapshot(in) == before, s"${q.name} $phase changed its input")
        if (in.trie.resultCount > 0 && (phase == "expand" || in.evi.size > 0)) checked += phase
      }
    }
    assert(checked == Set("expand", "filter"), "both phases ran on non-empty input")
  }
}

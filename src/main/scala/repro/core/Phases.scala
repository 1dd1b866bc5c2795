package repro.core

import repro.graph.PartitionedGraph

/** Pure per-machine R-Meef phase functions (Algorithms 1, 2 and 4).
  *
  * No function writes to an input state (deviation D8): expand appends new
  * trie levels and shares the earlier ones, and filter writes a fresh dead
  * bitmap, so the surrounding Spark lineage can be recomputed safely.
  */
object Phases {

  /** Init (per machine): candidate set of dp0.piv, border distance, the
    * SM-E split (Prop. 1), SM-E enumeration, and region grouping (Alg. 3).
    */
  def init(
      ctx: PlanCtx,
      mid: Int,
      block: AdjBlock,
      owner: Array[Int],
      budgetBytes: Double,
      smeEnabled: Boolean,
      seed: Long): MachineState = {

    val p      = ctx.pattern
    val uStart = ctx.uStart
    val local  = block.adj.keys.toArray.sorted
    val isLocal = (v: Int) => owner(v) == mid

    // --- border distance (Def. 1) of each local vertex ---
    val bd = PartitionedGraph.borderDistance(local, block.adj, isLocal)

    // --- candidates of dp0.piv + SM-E split ---
    val candidates = local.indices.filter(i => block.adj(local(i)).length >= p.degree(uStart))
    val (smeIdx, distIdx) = candidates.partition(i => smeEnabled && bd(i) >= ctx.startSpan)
    val (smeCands, distCands) = (smeIdx.map(local), distIdx.map(local))

    // --- SM-E: single-machine enumeration restricted to local vertices ---
    val adjOf: Int => Array[Int] = v => if (isLocal(v)) block.adj(v) else Array.empty[Int]
    val sme = LocalEnum.enumerate(p, adjOf, ctx.sb, smeCands.toVector,
      rootVertex = uStart, keepEmbeddings = true, accept = isLocal)

    // --- memory estimate (§6) and region groups (Alg. 3) ---
    val estPerRoot =
      if (smeCands.nonEmpty) math.max(20.0, 20.0 * sme.partials / smeCands.length)
      else {
        val avgDeg = if (local.nonEmpty) block.adj.valuesIterator.map(_.length).sum.toDouble / local.length else 1.0
        20.0 * math.max(2.0, avgDeg) * p.n
      }
    val groups = RegionGroups.group(distCands.toVector, adjOf, estPerRoot, budgetBytes, seed + mid)

    val stats = MachineStats(
      smeCandidates = smeCands.length, distCandidates = distCands.length,
      smeEmbeddings = sme.count, regionGroups = groups.size)
    val smeRows = Array.concat(sme.embeddings: _*)
    new MachineState(mid, groups, EmbeddingTrie.empty, Evi.empty, Map.empty,
      resultChunks = if (smeRows.nonEmpty) List(new ResultChunk(p.n, smeRows)) else Nil,
      stats = stats)
  }

  /** Expand (Algorithms 1–2): grow every live embedding of P_{i-1} into the
    * ECs of P_i through the pivot's adjacency, appending unit i's levels to
    * the trie and recording the EVI of undetermined edges. For round 0 the
    * sources are the region group's candidate vertices.
    */
  def expand(
      ctx: PlanCtx,
      st: MachineState,
      block: AdjBlock,
      fetched: Map[Int, Array[Int]],
      owner: Array[Int],
      g: Int,
      i: Int): MachineState = {

    val p     = ctx.pattern
    val cache = st.cache ++ fetched
    val mid   = st.mid
    def adjOrNull(v: Int): Array[Int] =
      if (owner(v) == mid) block.adj(v) else cache.getOrElse(v, null)

    val piv     = ctx.pivOf(i)
    val leaves  = ctx.unitLeaves(i)
    val lv      = Array.fill(leaves.size)(new LevelBuf)
    val eviKey  = Array.newBuilder[Long]
    val eviLeaf = Array.newBuilder[Int]
    val f       = Array.fill(p.n)(-1)
    var cacheHits = 0L

    // status of a data edge: Some(exists) if decidable locally, None otherwise
    def edgeStatus(x: Int, y: Int): Option[Boolean] = {
      val ax = adjOrNull(x)
      if (ax != null) Some(java.util.Arrays.binarySearch(ax, y) >= 0)
      else {
        val ay = adjOrNull(y)
        if (ay != null) Some(java.util.Arrays.binarySearch(ay, x) >= 0) else None
      }
    }

    // injectivity: is v already some pattern vertex's image? Patterns have
    // at most 10 vertices, so scanning f beats a set.
    def mapped(v: Int): Boolean = {
      var q = 0
      while (q < f.length && f(q) != v) q += 1
      q < f.length
    }

    /** Algorithm 2 over the leaves of unit i, below node `parent` of the
      * previous level: append each candidate, and pop it off again when
      * nothing below it succeeds.
      */
    def adjEnum(k: Int, parent: Int, pivAdj: Array[Int]): Boolean = {
      val u = leaves(k)
      var any = false
      var ci = 0
      while (ci < pivAdj.length) {
        val v = pivAdj(ci)
        var ok = !mapped(v)
        if (ok) { // candidate-level degree filter when adjacency is known
          val av = adjOrNull(v)
          if (av != null && av.length < p.degree(u)) ok = false
        }
        if (ok) ok = ctx.sbPartners(u).forall { case (other, otherSmaller) =>
          f(other) == -1 || (if (otherSmaller) f(other) < v else v < f(other))
        }
        if (ok) ok = ctx.checkPartners(u).forall { u2 =>
          f(u2) == -1 || !edgeStatus(v, f(u2)).contains(false)
        }
        if (ok) {
          f(u) = v
          val node = lv(k).append(v, parent)
          if (k == leaves.size - 1) {
            // EC of P_i complete: register its undetermined edges (Def. 4)
            ctx.unitVerifEdges(i).foreach { case (a, b) =>
              if (edgeStatus(f(a), f(b)).isEmpty) { eviKey += Evi.pack(f(a), f(b)); eviLeaf += node }
            }
            any = true
          } else if (adjEnum(k + 1, node, pivAdj)) any = true
          else lv(k).pop()
          f(u) = -1
        }
        ci += 1
      }
      any
    }

    val roots = new LevelBuf
    if (i == 0) {
      val cands = if (g < st.groups.size) st.groups(g) else Vector.empty
      cands.foreach { v =>
        f(piv) = v
        val root = roots.append(v, -1)
        if (!adjEnum(0, root, block.adj(v))) roots.pop()
        f(piv) = -1
      }
    } else {
      // Rebuild f for each live leaf by walking parent indices, stopping
      // where the path meets the previous leaf's; expand unit i below it.
      val t  = st.trie
      val at = Array.fill(t.depth)(-1) // node of the previous leaf's path, per level
      t.leaves.foreach { leaf =>
        var l = t.depth - 1; var j = leaf
        while (l >= 0 && at(l) != j) { at(l) = j; f(ctx.morder(l)) = t.verts(l)(j); j = t.parents(l)(j); l -= 1 }
        val vPiv   = f(piv)
        val pivAdj = adjOrNull(vPiv)
        // pivAdj == null can only happen if a fetch failed; drop the branch
        if (pivAdj != null) {
          if (owner(vPiv) != mid && st.cache.contains(vPiv)) cacheHits += 1
          adjEnum(0, leaf, pivAdj)
        }
      }
    }

    val (vs, ps) = if (i == 0) (Array(roots.verts), Array(roots.parents)) else (st.trie.verts, st.trie.parents)
    val newTrie  = new EmbeddingTrie(vs ++ lv.map(_.verts), ps ++ lv.map(_.parents))
    val stats = st.stats.copy(
      fetchedVertices = st.stats.fetchedVertices + fetched.size,
      cacheHits = st.stats.cacheHits + cacheHits,
      sumEtNodes = st.stats.sumEtNodes + newTrie.nodeCount,
      sumEtBytes = st.stats.sumEtBytes + newTrie.etBytes,
      sumElBytes = st.stats.sumElBytes + newTrie.elBytes,
      peakEtBytes = math.max(st.stats.peakEtBytes, newTrie.etBytes),
      peakElBytes = math.max(st.stats.peakElBytes, newTrie.elBytes),
      peakTrieBytes = math.max(st.stats.peakTrieBytes, newTrie.bytes))
    new MachineState(mid, st.groups, newTrie, new Evi(eviKey.result(), eviLeaf.result()), cache,
      st.resultChunks, stats)
  }

  /** Verify & filter: remove every EC sharing a failed undetermined edge
    * (Prop. 2) by marking its leaf dead; on the final round, harvest the
    * surviving embeddings into a result chunk.
    */
  def filter(
      ctx: PlanCtx,
      st: MachineState,
      failedEdges: Set[(Int, Int)],
      harvest: Boolean): MachineState = {

    val trie     = st.trie.without(st.evi.leavesOn(failedEdges))
    val verified = st.stats.copy(
      verifyEdges = st.stats.verifyEdges + st.evi.size,
      peakTrieBytes = math.max(st.stats.peakTrieBytes, trie.bytes))
    if (!harvest)
      new MachineState(st.mid, st.groups, trie, Evi.empty, st.cache, st.resultChunks, verified)
    else {
      // convert matching-order paths to query-vertex-indexed embeddings
      val n    = ctx.pattern.n
      val rows = new Array[Int](trie.resultCount.toInt * n)
      var r = 0
      trie.leaves.foreach { leaf =>
        var l = trie.depth - 1; var j = leaf
        while (l >= 0) { rows(r * n + ctx.morder(l)) = trie.verts(l)(j); j = trie.parents(l)(j); l -= 1 }
        r += 1
      }
      val chunk = new ResultChunk(n, rows)
      val stats = verified.copy(distEmbeddings = verified.distEmbeddings + chunk.size)
      new MachineState(st.mid, st.groups, EmbeddingTrie.empty, Evi.empty,
        st.cache, if (chunk.size > 0) chunk :: st.resultChunks else st.resultChunks, stats)
    }
  }
}

package repro.core

/** Compact storage of intermediate results (§5), kept as int columns.
  *
  * Every result of the current sub-pattern `P_i` is a root-to-leaf path of
  * `depth` nodes whose levels follow the matching order (Def. 10). Level `l`
  * stores node `j` as `verts(l)(j)` (its data vertex) and `parents(l)(j)`
  * (its index on level `l - 1`, -1 on level 0). Leaves sit on the last
  * level, and a leaf's index there is the result's unique ID — the
  * columnar form of the paper's "address of its leaf node in memory".
  *
  * The columns are never written after construction. Expand appends new
  * levels below the live leaves and shares the earlier ones; Removal sets
  * bits in a fresh `dead` bitmap over the leaves (bit `j` set = leaf `j`
  * removed; bits past the bitmap's end read as live). A node whose leaves
  * are all dead stays in its column until the region group ends, but is no
  * longer counted.
  */
final class EmbeddingTrie(
    val verts: Array[Array[Int]],
    val parents: Array[Array[Int]],
    val dead: Array[Long] = Array.emptyLongArray) extends Serializable {
  require(verts.length == parents.length && verts.indices.forall(l => verts(l).length == parents(l).length),
    "vertex and parent columns differ in shape")

  def depth: Int = verts.length

  private def storedLeaves: Int = verts(depth - 1).length // dead ones included

  def isLive(leaf: Int): Boolean =
    (leaf >>> 6) >= dead.length || (dead(leaf >>> 6) & (1L << leaf)) == 0

  /** IDs of the live results, in column order. */
  def leaves: Iterator[Int] = Iterator.range(0, storedLeaves).filter(isLive)

  /** Per level, per node: does a live leaf lie below it? One backward pass. */
  def liveMasks: Array[Array[Boolean]] = {
    val out = new Array[Array[Boolean]](depth)
    out(depth - 1) = Array.tabulate(storedLeaves)(isLive)
    var l = depth - 1
    while (l > 0) {
      val up = new Array[Boolean](verts(l - 1).length)
      val (mask, par) = (out(l), parents(l))
      var j = 0
      while (j < mask.length) { if (mask(j)) up(par(j)) = true; j += 1 }
      out(l - 1) = up; l -= 1
    }
    out
  }

  /** The paper's node count: nodes on a path to a live leaf. */
  val nodeCount: Long = liveMasks.iterator.map { m =>
    var n = 0L; var j = 0
    while (j < m.length) { if (m(j)) n += 1; j += 1 }
    n
  }.sum

  /** The data-vertex path of a result, root first (Retrieval of §5). */
  def pathOf(leaf: Int): Array[Int] = {
    val out = new Array[Int](depth)
    var j = leaf; var l = depth - 1
    while (l >= 0) { out(l) = verts(l)(j); j = parents(l)(j); l -= 1 }
    out
  }

  def results: Iterator[Array[Int]] = leaves.map(pathOf)

  def resultCount: Long = storedLeaves - dead.iterator.map(w => java.lang.Long.bitCount(w).toLong).sum

  /** The Removal operation of §5: the same columns with `ids` dead too. */
  def without(ids: Iterator[Int]): EmbeddingTrie =
    if (!ids.hasNext) this
    else {
      val d = java.util.Arrays.copyOf(dead, (storedLeaves + 63) >>> 6)
      ids.foreach(j => d(j >>> 6) |= 1L << j)
      new EmbeddingTrie(verts, parents, d)
    }

  /** Bytes in the paper's trie model: 20 B per live node. */
  def etBytes: Long = nodeCount * 20L

  /** Bytes of the equivalent flat embedding list: 8 B per mapped vertex. */
  def elBytes: Long = resultCount * depth * 8L

  /** Bytes this trie actually holds: both columns of every stored node,
    * dead prefixes included, plus the dead bitmap.
    */
  def bytes: Long = verts.iterator.map(_.length * 8L).sum + dead.length * 8L
}

object EmbeddingTrie {
  val empty: EmbeddingTrie = new EmbeddingTrie(Array(Array.emptyIntArray), Array(Array.emptyIntArray))
}

/** One growing trie level: Algorithm 2 appends a node before exploring
  * below it, and pops it off the end again when nothing below succeeds.
  */
private[core] final class LevelBuf {
  private var vs = new Array[Int](16)
  private var ps = new Array[Int](16)
  private var n  = 0

  def append(v: Int, parent: Int): Int = {
    if (n == vs.length) { vs = java.util.Arrays.copyOf(vs, 2 * n); ps = java.util.Arrays.copyOf(ps, 2 * n) }
    vs(n) = v; ps(n) = parent; n += 1
    n - 1
  }
  def pop(): Unit = n -= 1
  def verts: Array[Int] = java.util.Arrays.copyOf(vs, n)
  def parents: Array[Int] = java.util.Arrays.copyOf(ps, n)
}

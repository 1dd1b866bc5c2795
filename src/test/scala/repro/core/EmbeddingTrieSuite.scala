package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

object EmbeddingTrieSuite {

  /** A trie holding `paths` (distinct, all of length `depth`) with shared
    * prefixes, built level by level as the columns Expand appends.
    */
  def trieOf(depth: Int, paths: Seq[Array[Int]]): EmbeddingTrie = {
    val vs = Array.fill(depth)(mutable.ArrayBuffer[Int]())
    val ps = Array.fill(depth)(mutable.ArrayBuffer[Int]())
    paths.foreach { path =>
      require(path.length == depth, s"path length ${path.length} != depth $depth")
      var parent = -1
      for (l <- 0 until depth) {
        // never merge into an existing leaf: results are unique
        val j = if (l == depth - 1) -1 else vs(l).indices.indexWhere(j => vs(l)(j) == path(l) && ps(l)(j) == parent)
        parent = if (j >= 0) j else { vs(l) += path(l); ps(l) += parent; vs(l).size - 1 }
      }
    }
    new EmbeddingTrie(vs.map(_.toArray), ps.map(_.toArray))
  }

  def leafOf(t: EmbeddingTrie, path: Seq[Int]): Int = t.leaves.find(l => t.pathOf(l).toSeq == path).get

  /** Every non-empty prefix of the live results — the nodes the paper counts. */
  def livePrefixes(t: EmbeddingTrie): Set[Seq[Int]] =
    t.results.flatMap(p => (1 to p.length).map(n => p.toSeq.take(n))).toSet
}

class EmbeddingTrieSuite extends AnyFunSuite {
  import EmbeddingTrieSuite._

  /** Example 6 of the paper: three ECs of P_0 over (u0, u1, u2). */
  private def example6: EmbeddingTrie = trieOf(3, Seq(Array(0, 1, 2), Array(0, 1, 9), Array(0, 9, 11)))

  test("Example 6(a): three ECs share prefixes") {
    val t = example6
    assert(t.resultCount == 3)
    assert(t.nodeCount == 6) // v0; v1, v9; v2, v9, v11
    assert(t.verts(0).toSeq == Seq(0))
  }

  test("Example 6(b): filtering the second EC keeps the shared prefix") {
    val t = example6.without(Iterator(leafOf(example6, Seq(0, 1, 9))))
    assert(t.resultCount == 2)
    assert(t.nodeCount == 5)
    assert(t.results.map(_.toSeq).toSet == Set(Seq(0, 1, 2), Seq(0, 9, 11)))
  }

  test("removal cleans up empty ancestors recursively") {
    val t0 = trieOf(3, Seq(Array(0, 1, 2), Array(5, 6, 7)))
    val t  = t0.without(t0.leaves.filter(l => t0.pathOf(l)(0) == 5))
    assert(t.nodeCount == 3)
    val live = t.liveMasks(0)
    assert(t.verts(0).indices.filter(live(_)).map(t.verts(0)(_)) == Seq(0))
  }

  test("removal leaves the input trie unchanged") {
    val t = example6
    t.without(t.leaves.take(2))
    assert(t.resultCount == 3 && t.nodeCount == 6 && t.dead.isEmpty)
  }

  test("parent indices link each root to its children") {
    val t = example6
    assert(t.parents(1).count(_ == 0) == 2)
    assert(t.parents(0).forall(_ == -1))
  }

  test("compression: trie never larger than the list representation") {
    val t = example6
    assert(t.etBytes <= t.elBytes + 3 * 20) // shared prefixes shrink storage
    // many results sharing a long prefix compress strongly
    val big = trieOf(4, (0 until 50).map(i => Array(1, 2, 3, 100 + i)))
    assert(big.elBytes == 50L * 4 * 8)
    assert(big.etBytes == (3 + 50) * 20L)
    assert(big.etBytes < big.elBytes)
  }

  test("unique IDs: every result is a distinct leaf reference") {
    val t = example6
    val ids = t.leaves.toVector
    assert(ids.size == 3)
    assert(ids.toSet.size == 3)
    assert(ids.map(t.pathOf(_).toSeq).toSet.size == 3)
  }

  test("pathOf retrieves the stored result") {
    val t = trieOf(4, Seq(Array(7, 3, 9, 4)))
    assert(t.pathOf(t.leaves.next()).toSeq == Seq(7, 3, 9, 4))
  }

  test("append/pop growth (the Algorithm 2 protocol)") {
    val roots = new LevelBuf
    val kids  = new LevelBuf
    val root  = roots.append(5, -1)
    kids.append(6, root)
    kids.append(7, root)
    kids.pop() // nothing below 7 succeeded
    val t = new EmbeddingTrie(Array(roots.verts, kids.verts), Array(roots.parents, kids.parents))
    assert(t.nodeCount == 2)
    assert(t.results.map(_.toSeq).toSeq == Seq(Seq(5, 6)))
  }

  test("sibling distinctness holds after prefix-sharing inserts (Def. 11(3))") {
    val t = trieOf(3, Seq(Array(0, 1, 2), Array(0, 1, 3), Array(0, 2, 2)))
    (0 until t.depth).foreach { l =>
      val sibs = t.parents(l).zip(t.verts(l))
      assert(sibs.distinct.length == sibs.length)
    }
  }

  test("leaves at uniform depth; partial chains are invisible until attached") {
    // a root with no depth-3 path below it
    val t = new EmbeddingTrie(Array(Array(1), Array.emptyIntArray, Array.emptyIntArray),
      Array(Array(-1), Array.emptyIntArray, Array.emptyIntArray))
    assert(t.resultCount == 0)
    assert(t.leaves.isEmpty)
    assert(t.nodeCount == 0)
  }

  test("columns of different shapes are rejected") {
    assertThrows[IllegalArgumentException](new EmbeddingTrie(Array(Array(1, 2)), Array(Array(-1))))
    assertThrows[IllegalArgumentException](new EmbeddingTrie(Array(Array(1)), Array(Array(-1), Array(0))))
  }

  test("elBytes/etBytes accounting") {
    val t = example6
    assert(t.elBytes == 3L * 3 * 8)
    assert(t.etBytes == 6L * 20)
  }

  test("real bytes count both columns of every stored node plus the dead bitmap") {
    val t = example6
    assert(t.bytes == 6L * 8)
    val f = t.without(Iterator(0))
    assert(f.bytes == 6L * 8 + 8 && f.bytes >= 8L * f.nodeCount)
  }

  test("EVI packs edges symmetrically and maps failed edges to their leaves") {
    val evi = new Evi(Array(Evi.pack(3, 1), Evi.pack(1, 3), Evi.pack(2, 9)), Array(0, 4, 4))
    assert(evi.size == 2)
    assert(evi.keys.map(Evi.unpack).toSeq == Seq((1, 3), (2, 9)))
    assert(evi.leavesOn(Set((1, 3))).toSeq == Seq(0, 4))
    assert(evi.leavesOn(Set.empty).isEmpty)
  }
}

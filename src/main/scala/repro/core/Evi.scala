package repro.core

/** The edge verification index (Def. 5) as columns: entry `e` says that
  * leaf `leaf(e)` of the trie depends on the undetermined data edge
  * `key(e)`. Edges are packed as `min << 32 | max`.
  */
final class Evi(val key: Array[Long], val leaf: Array[Int]) extends Serializable {

  /** The distinct undetermined edges, ascending. */
  val keys: Array[Long] = {
    val k = key.clone(); java.util.Arrays.sort(k)
    var n = 0; var j = 0
    while (j < k.length) { if (n == 0 || k(n - 1) != k(j)) { k(n) = k(j); n += 1 }; j += 1 }
    java.util.Arrays.copyOf(k, n)
  }

  def size: Int = keys.length

  /** Leaves to remove once `failed` edges are known not to exist (Prop. 2). */
  def leavesOn(failed: Set[(Int, Int)]): Iterator[Int] = {
    val f = failed.iterator.map { case (a, b) => Evi.pack(a, b) }.toArray
    java.util.Arrays.sort(f)
    key.indices.iterator.filter(e => java.util.Arrays.binarySearch(f, key(e)) >= 0).map(leaf)
  }
}

object Evi {
  val empty: Evi = new Evi(Array.emptyLongArray, Array.emptyIntArray)

  def pack(a: Int, b: Int): Long = math.min(a, b).toLong << 32 | math.max(a, b)
  def unpack(k: Long): (Int, Int) = ((k >>> 32).toInt, k.toInt)
}

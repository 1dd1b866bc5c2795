package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.IntermediateOverflowException
import repro.query.Pattern
import scala.collection.mutable

/** Shared machinery of the join-based baselines: per-unit match DataFrames
  * (stars / cliques from the edge relation) and the multi-round fold join of
  * TwinTwig and SEED that shuffles intermediates — exactly the cost the
  * paper's §8 attributes to these systems — and [[Intermediates]], which
  * persists, counts, bounds and releases the intermediates of all four.
  */
object UnitJoins {

  /** Matches of a star unit: pivot + 1..k leaves (no leaf-leaf edges).
    * Columns `v{piv}`, `v{leaf_i}`; leaves mapped injectively.
    */
  def starDf(edges: DataFrame, piv: Int, leaves: Vector[Int]): DataFrame = {
    var df = edges.select(col("src").as(s"v$piv"), col("dst").as(s"v${leaves.head}"))
    leaves.tail.foreach { l =>
      val e = edges.select(col("src").as("_s"), col("dst").as(s"v$l"))
      df = df.join(e, col(s"v$piv") === col("_s")).drop("_s")
    }
    for (i <- leaves.indices; j <- 0 until i)
      df = df.where(col(s"v${leaves(i)}") =!= col(s"v${leaves(j)}"))
    df
  }

  /** Matches of a triangle unit on pattern vertices (a, b, c). */
  def triangleDf(edges: DataFrame, a: Int, b: Int, c: Int): DataFrame = {
    val e1 = edges.select(col("src").as(s"v$a"), col("dst").as(s"v$b"))
    val e2 = edges.select(col("src").as("_s"), col("dst").as(s"v$c"))
    val e3 = edges.select(col("src").as("_ts"), col("dst").as("_td"))
    e1.join(e2, col(s"v$b") === col("_s")).drop("_s")
      .join(e3, col(s"v$a") === col("_ts") && col(s"v$c") === col("_td"), "left_semi")
      .where(col(s"v$a") =!= col(s"v$c"))
  }

  /** Matches of a 4-clique unit on pattern vertices (a, b, c, d). */
  def k4Df(edges: DataFrame, a: Int, b: Int, c: Int, d: Int): DataFrame = {
    var df = triangleDf(edges, a, b, c)
    val e  = edges.select(col("src").as("_s"), col("dst").as(s"v$d"))
    df = df.join(e, col(s"v$a") === col("_s")).drop("_s")
    Seq(b, c).foreach { x =>
      val e2 = edges.select(col("src").as("_fs"), col("dst").as("_fd"))
      df = df.join(e2, col(s"v$d") === col("_fs") && col(s"v$x") === col("_fd"), "left_semi")
    }
    df.where(col(s"v$d") =!= col(s"v$b")).where(col(s"v$d") =!= col(s"v$c"))
  }

  /** Left-deep fold join of unit-match DataFrames with injectivity and
    * symmetry breaking applied as soon as their columns exist. Every unit
    * and intermediate goes through `im`, so the shuffled volume counts every
    * unit input and every intermediate join output (the MapReduce rounds of
    * TwinTwig/SEED).
    *
    * @param units (label, matchDf, vertices) — consecutive units must share
    *              at least one vertex with the accumulated set
    * @return [[Intermediates.result]] of the fold: columns `v0..v{n-1}`,
    *         persisted and counted
    */
  def foldJoin(
      p: Pattern,
      sb: Seq[(Int, Int)],
      units: Vector[(String, DataFrame, Vector[Int])],
      im: Intermediates): (DataFrame, Long) = {
    val (_, headDf, headVs) = units.head
    var mapped = headVs
    var prev   = im.account(headDf, mapped.size)
    var df     = JoinEnum.constrain(prev, sb, Vector.empty, mapped)
    units.tail.foreach { case (_, unitDf, vs) =>
      val shared = vs.filter(mapped.contains)
      require(shared.nonEmpty, "unit join needs a shared vertex")
      val fresh  = vs.filterNot(mapped.contains)
      val unit   = im.account(unitDf, vs.size)
      // rename the unit's shared columns, join on equality
      var u = unit
      shared.foreach(s => u = u.withColumnRenamed(s"v$s", s"_j$s"))
      val cond = shared.map(s => col(s"v$s") === col(s"_j$s")).reduce(_ && _)
      df = df.join(u, cond)
      shared.foreach(s => df = df.drop(s"_j$s"))
      df = JoinEnum.constrain(df, sb, mapped, fresh)
      mapped ++= fresh
      prev = im.account(df, mapped.size, prev, unit)
    }
    require(mapped.toSet == (0 until p.n).toSet, "units must cover the pattern")
    im.result(p, df)
  }

  /** The frames of one join run and its shuffled volume. Each intermediate
    * is persisted unless Spark already caches it (Spark's cache matches
    * plans up to column names, so a one-edge twig is the edge table),
    * counted, bounded by `maxIntermediate`, and added as `count` tuples of
    * `width` 8-byte columns. A frame is released once the frames built from
    * it are counted, every other frame once the result is, and all of them
    * if the run fails: wrap the run in [[guard]].
    */
  final class Intermediates(maxIntermediate: Long) {
    var tuples = 0L
    var bytes  = 0L
    private val held = mutable.ArrayBuffer[DataFrame]()
    private var last = Option.empty[DataFrame]

    private def count(df: DataFrame): Long = {
      if (df.storageLevel == StorageLevel.NONE) held += df.persist()
      df.count()
    }

    private def release(dfs: Seq[DataFrame]): Unit =
      dfs.filter(held.contains).foreach { d => d.unpersist(); held -= d }

    /** Persists and counts a frame the whole run reads (edges, adjacency),
      * without adding it to the shuffled volume.
      */
    def input(df: DataFrame): DataFrame = { count(df); df }

    /** Persists and counts intermediate `df` of `width` columns, fails above
      * `maxIntermediate`, adds it to the shuffled volume, then releases
      * `supersedes`.
      */
    def account(df: DataFrame, width: Int, supersedes: DataFrame*): DataFrame = {
      val c = count(df)
      if (c > maxIntermediate) throw new IntermediateOverflowException(c, maxIntermediate)
      tuples += c
      bytes  += c * width * 8L
      release(supersedes)
      last = Some(df)
      df
    }

    /** [[account]] for a chain of steps, each superseding the one before. */
    def step(df: DataFrame, width: Int): Unit = account(df, width, last.toSeq: _*)

    /** Persists and counts `df` with its columns in query-vertex order
      * (`v0..v{n-1}`), then releases every other frame. Spark's cache takes
      * a select that keeps the column order for the last intermediate
      * itself; the result then shares that frame's cache, which stays.
      *
      * @return (result, count); the caller unpersists the result
      */
    def result(p: Pattern, df: DataFrame): (DataFrame, Long) = {
      val out    = df.select((0 until p.n).map(i => col(s"v$i")): _*)
      val shared = out.storageLevel != StorageLevel.NONE
      if (!shared) out.persist()
      val n = out.count()
      release(held.filterNot(d => shared && last.contains(d)).toSeq)
      (out, n)
    }

    /** Runs `body`, releasing every held frame if it throws. */
    def guard[A](body: => A): A =
      try body catch { case e: Throwable => release(held.toSeq); throw e }
  }
}

package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.query.Pattern
import scala.collection.mutable

/** Shared machinery of the join-based baselines (TwinTwig, SEED):
  * per-unit match DataFrames (stars / cliques from the edge relation) and
  * the multi-round fold join that shuffles intermediates — exactly the cost
  * the paper's §8 attributes to these systems.
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
    * symmetry breaking applied as soon as their columns exist.
    *
    * Each unit and intermediate is persisted to be counted, and released
    * once the intermediate built from it has been counted. Spark's cache
    * matches plans up to column names, so a unit equal to a frame already
    * cached (a one-edge twig is the edge table) is neither persisted again
    * nor released here.
    *
    * @param units (label, matchDf, vertices) — consecutive units must share
    *              at least one vertex with the accumulated set
    * @return (result, count, shuffledTuples, shuffledBytes): the result has
    *         columns `v0..v{n-1}` and is persisted and counted, and the
    *         caller unpersists it; the shuffled volume counts every unit
    *         input and every intermediate join output (the MapReduce rounds
    *         of TwinTwig/SEED)
    */
  def foldJoin(
      spark: SparkSession,
      p: Pattern,
      sb: Seq[(Int, Int)],
      units: Vector[(String, DataFrame, Vector[Int])],
      maxIntermediate: Long = Long.MaxValue): (DataFrame, Long, Long, Long) = {
    var shuffledTuples = 0L
    var shuffledBytes  = 0L
    val held = mutable.ArrayBuffer[DataFrame]()
    def release(dfs: DataFrame*): Unit = dfs.filter(held.contains).foreach { d => d.unpersist(); held -= d }
    def account(df: DataFrame, width: Int): DataFrame = {
      if (df.storageLevel == StorageLevel.NONE) held += df.persist()
      val c = df.count()
      if (c > maxIntermediate) throw new repro.core.IntermediateOverflowException(c, maxIntermediate)
      shuffledTuples += c
      shuffledBytes  += c * width * 8L
      df
    }

    val sbLeft = mutable.ArrayBuffer.from(sb)
    val mapped = mutable.ArrayBuffer.from(units.head._3)
    def applySb(d0: DataFrame): DataFrame = {
      var d = d0
      val ready = sbLeft.filter { case (a, b) => mapped.contains(a) && mapped.contains(b) }
      ready.foreach { case (a, b) => d = d.where(col(s"v$a") < col(s"v$b")) }
      sbLeft --= ready
      d
    }

    try {
      var prev = account(units.head._2, mapped.size)
      var df   = applySb(prev)
      units.tail.foreach { case (_, unitDf, vs) =>
        val shared = vs.filter(mapped.contains)
        require(shared.nonEmpty, "unit join needs a shared vertex")
        val fresh  = vs.filterNot(mapped.contains)
        val unit   = account(unitDf, vs.size)
        // rename the unit's shared columns, join on equality
        var u = unit
        shared.foreach(s => u = u.withColumnRenamed(s"v$s", s"_j$s"))
        val cond = shared.map(s => col(s"v$s") === col(s"_j$s")).reduce(_ && _)
        df = df.join(u, cond)
        shared.foreach(s => df = df.drop(s"_j$s"))
        fresh.foreach { f => mapped.foreach { w => if (w != f) df = df.where(col(s"v$f") =!= col(s"v$w")) } }
        for (i <- fresh.indices; j <- 0 until i)
          df = df.where(col(s"v${fresh(i)}") =!= col(s"v${fresh(j)}"))
        mapped ++= fresh
        df = applySb(df)
        df = account(df, mapped.size)
        release(prev, unit)
        prev = df
      }
      require(mapped.toSet == (0 until p.n).toSet, "units must cover the pattern")
      val (out, count) = persistResult(p, df, Some(prev).filter(held.contains))
      (out, count, shuffledTuples, shuffledBytes)
    } catch { case e: Throwable => release(held.toSeq: _*); throw e }
  }

  /** Persists and counts `df` with its columns in query-vertex order
    * (`v0..v{n-1}`), then releases `last`, the persisted frame `df` was
    * computed from. Spark's cache takes a select that keeps the column order
    * for `last` itself; the result then shares `last`'s cache, which stays.
    *
    * @return (result, count); the caller unpersists the result
    */
  def persistResult(p: Pattern, df: DataFrame, last: Option[DataFrame]): (DataFrame, Long) = {
    val out    = df.select((0 until p.n).map(i => col(s"v$i")): _*)
    val shared = out.storageLevel != StorageLevel.NONE
    if (!shared) out.persist()
    val count = out.count()
    if (!shared) last.foreach(_.unpersist())
    (out, count)
  }
}

package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{BaselineMetrics, LocalEnum}
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** PSgL (Shao et al., SIGMOD'14): Pregel-style graph exploration.
  *
  * Query vertices are matched one at a time in breadth-first order; every
  * step the set of partial matches is shuffled to the machines owning the
  * next expansion vertex's adjacency and extended there. We model this as a
  * join of the partial-match DataFrame against the adjacency-list
  * DataFrame: the join's shuffle IS the partial-result exchange the paper's
  * communication charts attribute to PSgL. No compression, no memory
  * control (the paper's points (2) and (3) of §8 against PSgL).
  */
object PSgL {

  final case class Run(df: DataFrame, count: Long, metrics: BaselineMetrics)

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): Run = {
    val t0    = System.currentTimeMillis()
    val edges = pg.edgesDf(spark)
    val adj   = pg.adjDf(spark).persist()
    adj.count()

    val ord  = LocalEnum.order(p, 0)
    val seen = mutable.ArrayBuffer(ord.head)
    var df   = adj.select(col("vid").as(s"v${ord.head}"))
    var shuffledTuples = 0L
    var shuffledBytes  = 0L
    val sbLeft = mutable.ArrayBuffer.from(sb)
    def applySb(): Unit = {
      val ready = sbLeft.filter { case (a, b) => seen.contains(a) && seen.contains(b) }
      ready.foreach { case (a, b) => df = df.where(col(s"v$a") < col(s"v$b")) }
      sbLeft --= ready
    }
    applySb()

    var prev = Option.empty[DataFrame] // the last superstep, released once the next is counted
    try {
      ord.drop(1).foreach { u =>
        val nbrs  = p.neighbors(u).filter(seen.contains).toVector
        val first = nbrs.head
        // partials are shuffled to the machine owning f(first)'s adjacency
        df = df
          .join(adj.select(col("vid").as("_pv"), explode(col("nbrs")).as(s"v$u")),
            col(s"v$first") === col("_pv"))
          .drop("_pv")
        nbrs.tail.foreach { other =>
          val e2 = edges.select(col("src").as("_fs"), col("dst").as("_fd"))
          df = df.join(e2, col(s"v$u") === col("_fs") && col(s"v$other") === col("_fd"), "left_semi")
        }
        seen.foreach(w => df = df.where(col(s"v$u") =!= col(s"v$w")))
        seen += u
        applySb()
        df = df.persist()
        val c = df.count() // one superstep: partials materialize and move
        prev.foreach(_.unpersist())
        prev = Some(df)
        if (c > maxIntermediate) throw new repro.core.IntermediateOverflowException(c, maxIntermediate)
        shuffledTuples += c
        shuffledBytes  += c * seen.size * 8L
      }

      val (out, count) = UnitJoins.persistResult(p, df, prev)
      Run(out, count,
        BaselineMetrics("PSgL", shuffledTuples, shuffledBytes, p.n - 1, System.currentTimeMillis() - t0))
    } catch { case e: Throwable => prev.foreach(_.unpersist()); throw e }
    finally adj.unpersist(blocking = false)
  }
}

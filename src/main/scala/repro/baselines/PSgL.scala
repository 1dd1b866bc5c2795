package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.BaselineMetrics
import repro.graph.PartitionedGraph
import repro.query.Pattern

/** PSgL (Shao et al., SIGMOD'14): Pregel-style graph exploration.
  *
  * Query vertices are matched one at a time in breadth-first order; every
  * step the set of partial matches is shuffled to the machines owning the
  * next expansion vertex's adjacency and extended there. We model this as
  * [[JoinEnum.extend]] over the adjacency-list DataFrame exploded to
  * `(src, dst)`: the join's shuffle IS the partial-result exchange the paper's
  * communication charts attribute to PSgL. No compression, no memory
  * control (the paper's points (2) and (3) of §8 against PSgL).
  */
object PSgL {

  final case class Run(df: DataFrame, count: Long, metrics: BaselineMetrics)

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): Run = {
    val t0 = System.currentTimeMillis()
    val im = new UnitJoins.Intermediates(maxIntermediate)
    im.guard {
      val adj = im.input(pg.adjDf(spark))
      // each superstep shuffles the partials to the owner of f(first)'s adjacency
      val edges = adj.select(col("vid").as("src"), explode(col("nbrs")).as("dst"))
      val df    = JoinEnum.extend(edges, p, sb, adj.select(col("vid").as("v0")), Vector(0), onStep = im.step)
      val (out, count) = im.result(p, df)
      Run(out, count,
        BaselineMetrics("PSgL", im.tuples, im.bytes, p.n - 1, System.currentTimeMillis() - t0))
    }
  }
}

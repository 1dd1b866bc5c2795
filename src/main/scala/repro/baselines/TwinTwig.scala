package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.BaselineMetrics
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** TwinTwig (Lai et al., PVLDB'15): decompose the pattern into stars of at
  * most TWO edges ("twin twigs"), then multi-round joins, shuffling every
  * intermediate result on the join key — the memory/network behavior the
  * paper's experiments show collapsing on dense graphs.
  */
object TwinTwig {

  final case class Run(df: DataFrame, count: Long, metrics: BaselineMetrics)

  /** Greedy twin-twig decomposition: units of 1–2 star edges, every pattern
    * edge covered by exactly one unit, consecutive units connected.
    */
  def decompose(p: Pattern): Vector[(Int, Vector[Int])] = {
    val uncovered = mutable.LinkedHashSet.from(p.edges)
    val touched   = mutable.Set[Int]()
    val units     = mutable.ArrayBuffer[(Int, Vector[Int])]()
    def take(piv: Int): Unit = {
      val inc = uncovered.filter { case (a, b) => a == piv || b == piv }.take(2).toVector
      val lf  = inc.map { case (a, b) => if (a == piv) b else a }
      units += ((piv, lf))
      inc.foreach(uncovered -= _)
      touched += piv; touched ++= lf
    }
    // first unit: the max-degree vertex
    take((0 until p.n).maxBy(u => (p.degree(u), -u)))
    while (uncovered.nonEmpty) {
      // a touched vertex with the most uncovered incident edges
      val cands = touched.toVector.filter(v => uncovered.exists { case (a, b) => a == v || b == v })
      val piv = cands.maxBy(v => (uncovered.count { case (a, b) => a == v || b == v }, -v))
      take(piv)
    }
    units.toVector
  }

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): Run = {
    val t0    = System.currentTimeMillis()
    val units = decompose(p)
    val covered = units.flatMap { case (piv, lf) =>
      lf.map(l => (math.min(piv, l), math.max(piv, l)))
    }.toSet
    require(covered == p.edges.toSet, s"twin-twig units must cover all edges of ${p.name}")

    val im = new UnitJoins.Intermediates(maxIntermediate)
    val (out, count) = im.guard {
      val edges = im.input(pg.edgesDf(spark))
      val unitDfs = units.map { case (piv, lf) =>
        (s"twig($piv;${lf.mkString(",")})", UnitJoins.starDf(edges, piv, lf), (piv +: lf).distinct)
      }
      UnitJoins.foldJoin(p, sb, unitDfs, im)
    }
    Run(out, count,
      BaselineMetrics("TwinTwig", im.tuples, im.bytes, units.size, System.currentTimeMillis() - t0))
  }
}

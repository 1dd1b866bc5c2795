package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.BaselineMetrics
import repro.graph.PartitionedGraph
import repro.query.Pattern
import scala.collection.mutable

/** SEED (Lai et al., PVLDB'16): like TwinTwig but decomposition units may
  * be CLIQUES (triangles, 4-cliques) as well as stars — cliques are matched
  * as a unit (the paper's star-clique-preserved storage lets SEED list them
  * per machine), which shrinks the number of join rounds and the
  * intermediate volume on clique-rich queries. Deviation D5: left-deep
  * instead of bushy joins.
  */
object Seed {

  final case class Run(df: DataFrame, count: Long, metrics: BaselineMetrics)

  sealed trait Unit_
  final case class CliqueUnit(vs: Vector[Int]) extends Unit_
  final case class StarUnit(piv: Int, leaves: Vector[Int]) extends Unit_

  /** Greedy: largest clique (4 then 3) with an uncovered edge and overlap
    * with the matched part; otherwise a maximal star of uncovered edges.
    */
  def decompose(p: Pattern): Vector[Unit_] = {
    val uncovered = mutable.LinkedHashSet.from(p.edges)
    val touched   = mutable.Set[Int]()
    val units     = mutable.ArrayBuffer[Unit_]()

    def cliques(size: Int): Seq[Vector[Int]] =
      (0 until p.n).combinations(size).map(_.toVector)
        .filter(vs => vs.combinations(2).forall { case Vector(a, b) => p.hasEdge(a, b) })
        .toSeq

    def coverClique(vs: Vector[Int]): Unit = {
      units += CliqueUnit(vs)
      for (a <- vs; b <- vs if a < b) uncovered -= ((a, b))
      touched ++= vs
    }
    def coverStar(piv: Int): Unit = {
      val inc = uncovered.filter { case (a, b) => a == piv || b == piv }.toVector
      val lf  = inc.map { case (a, b) => if (a == piv) b else a }
      units += StarUnit(piv, lf)
      inc.foreach(uncovered -= _)
      touched += piv; touched ++= lf
    }

    while (uncovered.nonEmpty) {
      val first = units.isEmpty
      val cliqueOpt = Seq(4, 3).iterator.flatMap { k =>
        cliques(k).filter { vs =>
          val hasUncovered = vs.combinations(2).exists { case Vector(a, b) => uncovered.contains((a, b)) }
          hasUncovered && (first || vs.exists(touched.contains))
        }
      }.toSeq.headOption
      cliqueOpt match {
        case Some(vs) => coverClique(vs)
        case None =>
          val cands =
            if (first) (0 until p.n).toVector
            else touched.toVector.filter(v => uncovered.exists { case (a, b) => a == v || b == v })
          val piv = cands.maxBy(v => (uncovered.count { case (a, b) => a == v || b == v }, -v))
          coverStar(piv)
      }
    }
    units.toVector
  }

  def run(spark: SparkSession, pg: PartitionedGraph, p: Pattern, sb: Seq[(Int, Int)],
          maxIntermediate: Long = Long.MaxValue): Run = {
    val t0    = System.currentTimeMillis()
    val units = decompose(p)
    val coveredEdges = units.flatMap {
      case CliqueUnit(vs)      => for (a <- vs; b <- vs if a < b) yield (a, b)
      case StarUnit(piv, lf)   => lf.map(l => (math.min(piv, l), math.max(piv, l)))
    }.toSet
    require(p.edges.toSet.subsetOf(coveredEdges), s"SEED units must cover all edges of ${p.name}")

    val im = new UnitJoins.Intermediates(maxIntermediate)
    val (out, count) = im.guard {
      val edges = im.input(pg.edgesDf(spark))
      val unitDfs = units.map {
        case CliqueUnit(vs) if vs.size == 3 =>
          (s"tri(${vs.mkString(",")})", UnitJoins.triangleDf(edges, vs(0), vs(1), vs(2)), vs)
        case CliqueUnit(vs) =>
          (s"k4(${vs.mkString(",")})", UnitJoins.k4Df(edges, vs(0), vs(1), vs(2), vs(3)), vs)
        case StarUnit(piv, lf) =>
          (s"star($piv;${lf.mkString(",")})", UnitJoins.starDf(edges, piv, lf), (piv +: lf).distinct)
      }
      UnitJoins.foldJoin(p, sb, unitDfs, im)
    }
    Run(out, count,
      BaselineMetrics("SEED", im.tuples, im.bytes, units.size, System.currentTimeMillis() - t0))
  }
}

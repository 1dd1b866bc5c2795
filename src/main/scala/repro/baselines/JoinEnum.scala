package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.LocalEnum
import repro.query.Pattern
import scala.collection.mutable

/** Generic edge-at-a-time enumeration via Catalyst joins (BigJoin-style,
  * Ammar et al. [2]) and the DuckDB SQL generator every oracle test uses.
  *
  * Both sides build the same logical query: one relation per pattern edge,
  * connected along a BFS matching order, with injectivity and the shared
  * Grochow–Kellis symmetry-breaking conditions. Output columns are
  * `v{queryVertex}`.
  */
object JoinEnum {

  /** Extend `start` (columns `v{u}` for `mapped` vertices) to the full
    * pattern, one vertex per step along [[LocalEnum.order]] from `mapped`:
    * each step joins the partial matches with `edges(src, dst)` on one
    * matched neighbor and semi-joins the others. Used by JoinEnum itself,
    * by PSgL over the adjacency, and by Crystal to grow from an
    * index-seeded clique.
    *
    * @param onStep called after each step with the intermediate DataFrame
    *               and the number of vertices it maps (for counting
    *               shuffled intermediates)
    */
  def extend(
      edges: DataFrame,
      p: Pattern,
      sb: Seq[(Int, Int)],
      start: DataFrame,
      mapped: Vector[Int],
      onStep: (DataFrame, Int) => Unit = (_, _) => ()): DataFrame = {
    val ord = LocalEnum.order(p, mapped: _*)
    var df  = constrain(start, sb, Vector.empty, mapped)
    (mapped.size until p.n).foreach { k =>
      val u    = ord(k)
      val seen = ord.take(k)
      val nbrs = p.neighbors(u).filter(seen.contains)
      val e    = edges.select(col("src").as("_es"), col("dst").as("_ed"))
      df = df.join(e, col(s"v${nbrs.head}") === col("_es"))
        .withColumnRenamed("_ed", s"v$u").drop("_es")
      nbrs.tail.foreach { other =>
        val e2 = edges.select(col("src").as("_fs"), col("dst").as("_fd"))
        df = df.join(e2, col(s"v$u") === col("_fs") && col(s"v$other") === col("_fd"), "left_semi")
      }
      df = constrain(df, sb, seen, Vector(u))
      onStep(df, k + 1)
    }
    df.select((0 until p.n).map(i => col(s"v$i")): _*)
  }

  /** The conditions that binding the `fresh` vertices adds to partial
    * matches of `before`: injectivity between each fresh vertex and every
    * other bound one, and each symmetry-breaking condition (a, b) whose
    * columns both exist now but did not before.
    */
  def constrain(df: DataFrame, sb: Seq[(Int, Int)], before: Seq[Int], fresh: Seq[Int]): DataFrame = {
    val bound    = before ++ fresh
    val distinct = for (i <- fresh.indices; w <- before ++ fresh.take(i))
      yield col(s"v${fresh(i)}") =!= col(s"v$w")
    val ordered  = sb.collect { case (a, b)
      if bound.contains(a) && bound.contains(b) && !(before.contains(a) && before.contains(b)) =>
        col(s"v$a") < col(s"v$b")
    }
    (distinct ++ ordered).foldLeft(df)(_.where(_))
  }

  /** Full enumeration starting from all vertices. */
  def run(spark: SparkSession, edges: DataFrame, p: Pattern, sb: Seq[(Int, Int)]): DataFrame =
    extend(edges, p, sb, edges.select(col("src").as("v0")).distinct(), Vector(0))

  /** DuckDB SQL equivalent over an `edges(src, dst)` table that stores both
    * directions. All columns are stored as VARCHAR by the Oracle, hence the
    * BIGINT casts on every comparison.
    */
  def duckSql(p: Pattern, sb: Seq[(Int, Int)], table: String = "edges"): String = {
    val ord      = LocalEnum.order(p, 0)
    val expr     = mutable.Map[Int, String]()
    val defining = mutable.Set[(Int, Int)]()
    val from     = mutable.ArrayBuffer[String]()
    val cond     = mutable.ArrayBuffer[String]()
    var ai       = 0
    def cast(s: String) = s"CAST($s AS BIGINT)"

    // defining aliases: one per new vertex along the matching order
    expr(ord.head) = null // placeholder; defined by the first alias below
    ord.drop(1).foreach { u =>
      val parent = p.neighbors(u).filter(expr.contains).head
      defining += ((math.min(parent, u), math.max(parent, u)))
      ai += 1
      val a = s"e$ai"
      from += s"$table $a"
      if (expr(parent) == null) expr(parent) = s"$a.src" // first alias defines the root too
      else cond += s"${cast(s"$a.src")} = ${cast(expr(parent))}"
      expr(u) = s"$a.dst"
    }
    // remaining pattern edges: one filtering alias each
    p.edges.filterNot(defining.contains).foreach { case (a, b) =>
      ai += 1
      val al = s"e$ai"
      from += s"$table $al"
      cond += s"${cast(s"$al.src")} = ${cast(expr(a))}"
      cond += s"${cast(s"$al.dst")} = ${cast(expr(b))}"
    }
    // injectivity
    for (x <- 0 until p.n; y <- 0 until x)
      cond += s"${cast(expr(x))} <> ${cast(expr(y))}"
    // symmetry breaking
    sb.foreach { case (a, b) => cond += s"${cast(expr(a))} < ${cast(expr(b))}" }

    val sel = (0 until p.n).map(u => s"${cast(expr(u))} AS v$u").mkString(", ")
    s"SELECT $sel FROM ${from.mkString(", ")}" +
      (if (cond.nonEmpty) s" WHERE ${cond.mkString(" AND ")}" else "")
  }
}

package repro.baselines

import java.nio.file.Files
import repro.SparkSpec
import repro.core.{BaselineMetrics, IntermediateOverflowException, LocalEnum}
import repro.graph.{GraphGen, PartitionedGraph}
import repro.query.{Automorphism, Queries}

/** PSgL / TwinTwig / SEED / Crystal vs the local ground truth. */
class BaselineEnginesSuite extends SparkSpec {

  private val g  = GraphGen.gnm(45, 120, seed = 41)
  private val pg = PartitionedGraph.metis(g, 2, seed = 1)

  private def canonDf(df: org.apache.spark.sql.DataFrame): Set[Seq[Int]] =
    df.collect().map(r => (0 until r.length).map(i => r.getInt(i)): Seq[Int]).toSet

  private def refSet(q: repro.query.Pattern): Set[Seq[Int]] =
    LocalEnum.reference(q, g, Automorphism.symmetryBreaking(q)).embeddings.map(_.toSeq).toSet

  private lazy val index = Crystal.buildIndex(g, Files.createTempDirectory("crystal-test"))

  Seq(Queries.q1, Queries.q2, Queries.q3, Queries.q4, Queries.q5).foreach { q =>
    test(s"PSgL matches the reference on ${q.name}") {
      val run = PSgL.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      assert(run.count == refSet(q).size)
      run.df.unpersist()
    }
  }

  Seq(Queries.q1, Queries.q2, Queries.q4, Queries.q6, Queries.tq1).foreach { q =>
    test(s"TwinTwig matches the reference on ${q.name}") {
      val run = TwinTwig.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  Seq(Queries.q2, Queries.q4, Queries.q7, Queries.tq1, Queries.tq2, Queries.tq4).foreach { q =>
    test(s"SEED matches the reference on ${q.name}") {
      val run = Seed.run(spark, pg, q, Automorphism.symmetryBreaking(q))
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  Seq(Queries.q1, Queries.q2, Queries.q4, Queries.tq1, Queries.tq2, Queries.tq3).foreach { q =>
    test(s"Crystal matches the reference on ${q.name}") {
      val run = Crystal.run(spark, pg, q, Automorphism.symmetryBreaking(q), index)
      assert(canonDf(run.df) == refSet(q))
      run.df.unpersist()
    }
  }

  /** Runs one baseline by name on `pg`, bounded by `maxIntermediate`. */
  private def runEngine(name: String, q: repro.query.Pattern,
                        maxIntermediate: Long = Long.MaxValue): (org.apache.spark.sql.DataFrame, Long, BaselineMetrics) = {
    val sb = Automorphism.symmetryBreaking(q)
    name match {
      case "PSgL"     => val r = PSgL.run(spark, pg, q, sb, maxIntermediate); (r.df, r.count, r.metrics)
      case "TwinTwig" => val r = TwinTwig.run(spark, pg, q, sb, maxIntermediate); (r.df, r.count, r.metrics)
      case "SEED"     => val r = Seed.run(spark, pg, q, sb, maxIntermediate); (r.df, r.count, r.metrics)
      case "Crystal"  => val r = Crystal.run(spark, pg, q, sb, index, maxIntermediate); (r.df, r.count, r.metrics)
    }
  }

  // (count, shuffledTuples, shuffledBytes, rounds) of each engine on this
  // graph, pinned so that a refactor of the shared join code cannot move them.
  private val pinned: Map[(String, String), (Long, Long, Long, Int)] = Map(
    ("PSgL", "q1") -> (96L, 625L, 14808L, 3),
    ("PSgL", "q2") -> (291L, 594L, 14664L, 3),
    ("PSgL", "q4") -> (172L, 649L, 19720L, 4),
    ("TwinTwig", "q1") -> (96L, 2508L, 62816L, 3),
    ("TwinTwig", "q2") -> (291L, 4862L, 138144L, 3),
    ("TwinTwig", "q4") -> (172L, 18315L, 682040L, 4),
    ("SEED", "q1") -> (96L, 2508L, 62816L, 3),
    ("SEED", "q2") -> (291L, 657L, 16176L, 2),
    ("SEED", "q4") -> (172L, 2607L, 82680L, 4),
    ("Crystal", "q1") -> (96L, 601L, 19232L, 2),
    ("Crystal", "q2") -> (291L, 582L, 18624L, 1),
    ("Crystal", "q4") -> (172L, 638L, 25520L, 2))

  Seq("PSgL", "TwinTwig", "SEED", "Crystal").foreach { name =>
    test(s"$name count and shuffle metrics are pinned on q1, q2 and q4") {
      val before = spark.sparkContext.getPersistentRDDs.keySet
      val got = Seq(Queries.q1, Queries.q2, Queries.q4).map { q =>
        val (df, count, m) = runEngine(name, q)
        df.unpersist()
        (name, q.name) -> (count, m.shuffledTuples, m.shuffledBytes, m.rounds)
      }.toMap
      assert(got == pinned.filter(_._1._1 == name))
      assert(spark.sparkContext.getPersistentRDDs.keySet == before, "unpersisting the result releases the run")
    }

    test(s"$name overflows at maxIntermediate = 1 and leaves nothing cached") {
      val before = spark.sparkContext.getPersistentRDDs.keySet
      assertThrows[IntermediateOverflowException](runEngine(name, Queries.q4, maxIntermediate = 1))
      assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    }
  }

  test("TwinTwig decomposition: units have at most 2 edges and cover all edges") {
    Queries.main.foreach { q =>
      val units = TwinTwig.decompose(q)
      units.foreach { case (_, lf) => assert(lf.nonEmpty && lf.size <= 2) }
      val covered = units.flatMap { case (p, lf) => lf.map(l => (math.min(p, l), math.max(p, l))) }
      assert(covered.toSet == q.edges.toSet, q.name)
      assert(covered.size == covered.distinct.size, s"${q.name}: an edge covered twice")
    }
  }

  test("SEED decomposition uses a clique unit on clique-rich queries") {
    val units = Seed.decompose(Queries.tq2)
    assert(units.exists { case Seed.CliqueUnit(vs) => vs.size == 4; case _ => false })
    val units2 = Seed.decompose(Queries.q4)
    assert(units2.exists { case Seed.CliqueUnit(vs) => vs.size == 3; case _ => false })
  }

  test("SEED uses fewer units than TwinTwig on clique queries") {
    Seq(Queries.tq2, Queries.tq3).foreach { q =>
      assert(Seed.decompose(q).size < TwinTwig.decompose(q).size, q.name)
    }
  }

  test("PSgL shuffles every partial result (nonzero comm on nontrivial queries)") {
    val run = PSgL.run(spark, pg, Queries.q3, Automorphism.symmetryBreaking(Queries.q3))
    assert(run.metrics.shuffledTuples > 0)
    assert(run.metrics.rounds == Queries.q3.n - 1)
    run.df.unpersist()
  }

  test("Crystal index holds exactly the graph's triangles") {
    assert(index.triangles.length == g.triangleCount)
    index.triangles.foreach { case (a, b, c) =>
      assert(a < b && b < c)
      assert(g.hasEdge(a, b) && g.hasEdge(b, c) && g.hasEdge(a, c))
    }
  }

  test("Crystal index 4-cliques are genuine and canonical") {
    index.k4s.foreach { case (a, b, c, d) =>
      assert(a < b && b < c && c < d)
      Seq((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)).foreach { case (x, y) =>
        assert(g.hasEdge(x, y))
      }
    }
  }

  test("Crystal index is persisted on disk with nonzero size") {
    assert(index.bytesOnDisk > 0)
    assert(Files.exists(index.dir.resolve("cliques3.txt")))
  }

  test("Crystal seeds from the largest pattern clique") {
    assert(Crystal.largestPatternClique(Queries.tq2).size == 4)
    assert(Crystal.largestPatternClique(Queries.q2).size == 3)
    assert(Crystal.largestPatternClique(Queries.q1).size == 2)
  }
}

package repro.radsbench

import repro.graph.{Graph, GraphGen}
import repro.query.{Pattern, Queries}

/** The benchmark's workloads and the graphs they run on.
  *
  * A workload is a list of (dataset, query) items run through
  * `Rads.enumerate` in one pass, with one memory budget Φ. Graphs are
  * generated from the graph seed, so the same seed gives the same inputs.
  *
  * Three profiles size the graphs:
  *  - `bench` (default): scaled so one pass takes 1.5–3 s on 4 cores, with
  *    degree caps low enough (and RoadNet-lite regular enough) that counts,
  *    communication and trie peaks move by a few percent between graph seeds;
  *  - `full`: the `BenchData` graphs themselves (seed 7 reproduces them
  *    exactly), a pass takes 3–18 s;
  *  - `smoke`: `GraphGen.dataset(_, scale ≪ 1)`, for a self-check that runs
  *    every workload in under a minute.
  */
object Workloads {

  /** Logical machines, as in `BenchData`. */
  val machines = 4

  final case class Item(dataset: String, query: Pattern) {
    def label: String = s"${dataset}/${query.name}"
  }

  final case class Workload(name: String, budgetBytes: Double, items: Vector[Item]) {
    def datasets: Vector[String] = items.map(_.dataset).distinct
  }

  val profiles: Seq[String] = Seq("bench", "full", "smoke")

  val names: Seq[String] = Seq("lj-cycle", "dense-verify", "road-sme", "dblp-budget")

  private val MiB = 1024.0 * 1024.0
  private val KiB = 1024.0

  def workload(profile: String, name: String): Workload = {
    import Queries._
    val budget = profile match {
      case "full"  => 64 * KiB
      // Φ sets the group size from φ per start vertex: 20 B per SM-E partial
      // on a machine with SM-E candidates (0-3 here; 200-485 B for q8), else a
      // degree estimate (~730 B for q5 and q8). 256 KiB keeps a machine's 400
      // start vertices in one group under the first and splits them in two
      // (~360 + 40) under the second; a smaller Φ sizes the largest group by
      // the sampled estimate, and the peak trie then nearly halves in some seeds.
      case "bench" => 256 * KiB
      case _       => 2 * KiB
    }
    name match {
      case "lj-cycle" =>
        Workload(name, 4 * MiB, Vector(Item("LiveJournal", q6), Item("LiveJournal", q3)))
      case "dense-verify" =>
        Workload(name, 4 * MiB,
          Vector(Item("LiveJournal", q4), Item("UK2002", q2), Item("UK2002", q4)))
      case "road-sme" =>
        Workload(name, 4 * MiB, Queries.main.map(q => Item("RoadNet", q)).toVector)
      case "dblp-budget" =>
        Workload(name, budget, Vector(Item("DBLP", q4), Item("DBLP", q5), Item("DBLP", q8)))
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }
  }

  def graph(profile: String, dataset: String, seed: Long): Graph = (profile, dataset) match {
    // 90% of the non-tree grid edges, not 25%: partition borders, and with
    // them communication and trie peaks, then move by ~4% between seeds, not ~20%
    case ("bench", "RoadNet")     => GraphGen.roadLite(70, 70, seed = seed, extraFrac = 0.9)
    case ("bench", "DBLP")        => GraphGen.powerLaw(1600, edgesPerVertex = 3, maxDegree = 12, seed = seed)
    case ("bench", "LiveJournal") => GraphGen.powerLaw(1000, edgesPerVertex = 4, maxDegree = 12, seed = seed)
    case ("bench", "UK2002")      => GraphGen.ukLite(1000, seed = seed, edgesPerVertex = 4, maxDegree = 16)
    // the BenchData graphs, with the graph seed as a parameter
    case ("full", "RoadNet")      => GraphGen.roadLite(70, 70, seed = seed)
    case ("full", "DBLP")         => GraphGen.dblpLite(2500, seed = seed)
    case ("full", "LiveJournal")  => GraphGen.powerLaw(3500, edgesPerVertex = 4, maxDegree = 40, seed = seed)
    case ("full", "UK2002")       => GraphGen.ukLite(4000, seed = seed, edgesPerVertex = 4, maxDegree = 48)
    case ("smoke", ds)            => GraphGen.dataset(ds, scale = 0.005, seed = seed)
    case _ => throw new IllegalArgumentException(s"unknown profile/dataset $profile/$dataset")
  }
}

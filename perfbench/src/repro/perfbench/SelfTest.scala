package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.data.UsdaData
import repro.exp.Experiments

/** The benchmark's own tests: each output gate passes on a correct output
  * and fails when that output is perturbed. Run with
  * `perfbench/run.sh --selftest`; the exit code is the number of failures.
  */
object SelfTest {

  private var failures = 0

  private def expect(name: String)(cond: => Boolean): Unit = {
    val ok = try cond catch { case e: Exception => println(s"  threw $e"); false }
    println(s"${if (ok) "ok  " else "FAIL"} $name")
    if (!ok) failures += 1
  }

  def run(): Int = {
    corpusGates()
    matchGates()
    digest()
    cacheGate()
    println(s"$failures self-test failure(s)")
    failures
  }

  private def corpusGates(): Unit = {
    val truth = Map(1L -> 5L, 2L -> 7L, 3L -> 6L)
    val good = Seq(
      RecipeOut(1, 4, 5, 5, 5, 100.0, 100.0, 310.0),
      RecipeOut(2, 2, 7, 7, 7, 100.0, 100.0, 520.0),
      RecipeOut(3, 6, 6, 5, 5, 500.0 / 6, 500.0 / 6, 95.0))
    def conserves(out: Seq[RecipeOut]) = CorpusGates.conservation(out, truth)

    expect("conservation passes a correct output")(conserves(good).ok && conserves(good).failedItems == 0)
    expect("conservation fails when a recipe is missing") {
      val v = conserves(good.tail); !v.ok && v.failedItems == 5
    }
    expect("conservation fails when a recipe is duplicated")(!conserves(good :+ good.head).ok)
    expect("conservation fails when a line is lost")(!conserves(good.updated(1, good(1).copy(nLines = 6))).ok)
    expect("conservation fails on a recipe never generated")(!conserves(good :+ good.head.copy(recipeId = 9)).ok)
    expect("conservation fails when mapped counts exceed lines") {
      !conserves(good.updated(0, good(0).copy(nNameMapped = 6, pctNameMapped = 120.0))).ok
    }
    expect("conservation fails when a percentage disagrees with its count") {
      !conserves(good.updated(2, good(2).copy(pctFullyMapped = 100.0))).ok
    }
    expect("conservation fails on an infinite kcal per serving") {
      !conserves(good.updated(0, good(0).copy(estKcalPerServing = Double.PositiveInfinity))).ok
    }

    val gold = Map(1L -> 300.0, 2L -> 500.0, 3L -> 100.0)
    val s = CorpusGates.summary(good, gold)
    expect("summary: MAE over fully mapped recipes only")(s.fullyMapped == 2 && s.maeKcal == 15.0)
    expect("summary: Figure 2 buckets") {
      s.fig2("ingredient name") == Map("100" -> 66.67, "80-90" -> 33.33) &&
        s.fig2("ingredient + unit") == Map("100" -> 66.67, "80-90" -> 33.33)
    }
    expect("plausibility passes a correct summary")(CorpusGates.plausible(s).isEmpty)
    expect("plausibility fails on a large calorie error")(CorpusGates.plausible(s.copy(maeKcal = 95.0)).nonEmpty)
    expect("plausibility fails when few recipes are fully mapped")(CorpusGates.plausible(s.copy(fullyMapped = 0)).nonEmpty)

    val rec = CorpusGates.Recorded
    expect("recorded gate passes the recorded figures")(CorpusGates.matchesRecorded(rec).isEmpty)
    expect("recorded gate passes an MAE that rounds to the record")(CorpusGates.matchesRecorded(rec.copy(maeKcal = 57.8449)).isEmpty)
    expect("recorded gate fails on another recipe count")(CorpusGates.matchesRecorded(rec.copy(recipes = 11806)).nonEmpty)
    expect("recorded gate fails on another fully mapped count")(CorpusGates.matchesRecorded(rec.copy(fullyMapped = 9410)).nonEmpty)
    expect("recorded gate fails on another MAE")(CorpusGates.matchesRecorded(rec.copy(maeKcal = 57.86)).nonEmpty)
    expect("recorded gate fails on moved Figure 2 buckets") {
      val moved = rec.fig2.updated("ingredient name", rec.fig2("ingredient name") ++ Map("100" -> 80.15, "90-100" -> 8.39))
      CorpusGates.matchesRecorded(rec.copy(fig2 = moved)).nonEmpty
    }
  }

  private def matchGates(): Unit = {
    val foods = UsdaData.allFoods.map(f => f.ndbId -> f.description)
    val desc  = foods.toMap
    val keys  = Experiments.TableIIIRows.zipWithIndex.map { case ((n, s, _, _), i) =>
      MatchOracle.Key(i.toLong, n, s, "", "")
    } :+ MatchOracle.Key(99L, "garam masala", "", "", "")
    val (mod, van) = MatchOracle.best(keys, foods)

    // The oracle reproduces the Table III rows the matcher is known to match
    // (EXPERIMENTS.md): 7/9 of the paper's modified column, and these
    // vanilla rows.
    val paperModified = Experiments.TableIIIRows.zipWithIndex.count { case ((_, _, pm, _), i) =>
      mod.get(i.toLong).map(b => desc(b.ndbId)).contains(pm)
    }
    expect("oracle: 7/9 Table III modified rows as recorded")(paperModified == 7)
    expect("oracle: vanilla picks 'Soup, vegetable broth, ready to serve'") {
      van.get(4L).map(b => desc(b.ndbId)).contains("Soup, vegetable broth, ready to serve")
    }
    expect("oracle: an unmappable name stays unmapped")(!mod.contains(99L) && !van.contains(99L))

    val good = mod.map { case (id, b) => id -> Seq(b) }
    val some = mod.keys.head
    val all  = keys.map(_.ingId).toSet
    val ids  = foods.map(_._1).toSet
    def check(out: Map[Long, Seq[MatchOracle.Best]], scored: Set[Long] = all) =
      MatchOracle.check(keys, out, mod, scored, ids, "modified")
    expect("match gate passes the oracle's own output")(check(good).ok)
    expect("match gate fails on another food") {
      val v = check(good.updated(some, Seq(mod(some).copy(ndbId = -5))))
      !v.ok && v.failedItems == 1
    }
    expect("match gate fails on another score") {
      !check(good.updated(some, Seq(mod(some).copy(score = 0.01)))).ok
    }
    expect("match gate fails on a dropped match")(!check(good - some).ok)
    expect("match gate fails on two rows for one key") {
      !check(good.updated(some, Seq(mod(some), mod(some)))).ok
    }
    expect("match gate: keys outside the sample pass any single plausible row") {
      check(good.updated(some, Seq(mod(some).copy(ndbId = 1))), all - some).ok
    }
    expect("match gate: keys outside the sample fail on two rows") {
      !check(good.updated(some, Seq(mod(some), mod(some))), all - some).ok
    }
    expect("match gate: keys outside the sample fail on an unknown food") {
      !check(good.updated(some, Seq(mod(some).copy(ndbId = -5))), all - some).ok
    }
    expect("match gate: keys outside the sample fail on a score above 1") {
      !check(good.updated(some, Seq(mod(some).copy(score = 1.5))), all - some).ok
    }
    expect("match gate fails on a match for an unmapped key") {
      !check(good + (99L -> Seq(MatchOracle.Best(1, 0.5)))).ok
    }
  }

  private def digest(): Unit = {
    val rows = Seq(Seq[Any](1L, "a", 0.1 + 0.2), Seq[Any](2L, "b", 3.0))
    val same = Seq(Seq[Any](2L, "b", 3.0), Seq[Any](1L, "a", 0.3))
    expect("parity ignores row order and summation-order rounding")(Digest.difference(rows, same).isEmpty)
    expect("parity holds across a rounding boundary") {
      Digest.difference(Seq(Seq[Any](1L, 6027.438687500001)), Seq(Seq[Any](1L, 6027.438687499999))).isEmpty
    }
    expect("parity fails when a value changes")(Digest.difference(rows, rows.updated(1, Seq[Any](2L, "b", 3.001))).nonEmpty)
    expect("parity fails when a key changes")(Digest.difference(rows, rows.updated(1, Seq[Any](3L, "b", 3.0))).nonEmpty)
    expect("parity fails when a row is lost")(Digest.difference(rows, rows.take(1)).nonEmpty)
    expect("digest ignores row order")(Digest.of(rows) == Digest.of(same))
    expect("digest changes when a value changes")(Digest.of(rows) != Digest.of(rows.updated(1, Seq[Any](2L, "b", 3.001))))
  }

  private def cacheGate(): Unit = {
    val spark = SparkSession.builder.master("local[1]").appName("perfbench-selftest")
      .config("spark.ui.enabled", "false").config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new java.io.File(".bench_build/spark-local").getAbsolutePath)
      .getOrCreate()
    try {
      def plan() = spark.range(1000).selectExpr("id % 7 AS k").groupBy("k").count()
      val df = plan()
      expect("cache gate passes a plan that is computed")(Workloads.requireComputed(df, "plan") eq df)
      df.cache().count()
      expect("cache gate fails when an identical plan would come from the cache") {
        try { Workloads.requireComputed(plan(), "plan"); false }
        catch { case _: IllegalStateException => true }
      }
      spark.catalog.clearCache()
      expect("cache gate passes the same plan once the cache is cleared") {
        Workloads.requireComputed(plan(), "plan"); true
      }
    } finally spark.stop()
  }
}

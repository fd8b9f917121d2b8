package repro.perfbench

import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.columnar.InMemoryRelation
import org.apache.spark.sql.functions._

import repro.core.{JaccardMatcher, NerPipeline, NutritionEstimator, UnitMatcher}
import repro.data.{RecipeData, UsdaData}
import repro.exp.Experiments
import repro.nlp.NerModel

/** The rows one pipeline run returned, materialized on the driver. */
final case class Output(rows: Seq[Row]) {
  def digest: String = Digest.of(rows.map(_.toSeq))
}

/** A workload with its inputs built in a session, ready to run. */
trait Prepared {
  /** Input items one run completes. */
  def items: Long
  /** Seconds spent in the set-up layers, keyed by metric name. */
  def setupSeconds: Map[String, Double]
  /** One untraced pipeline run through the program's public entry point. */
  def run(): Output
  /** The same pipeline rebuilt layer by layer from the public layer
    * functions, each layer's input materialized before its span starts.
    */
  def staged(tracer: Tracer, runId: String): Output
  /** Computes what the gates compare against; not part of any timing. */
  def prepareGates(): Unit
  /** Output gates of one run. */
  def check(out: Output): Verdict
  /** Per-layer counts of the last staged run, read from its materialized
    * layer outputs after the spans have ended.
    */
  def layerCounts(): Map[String, Double]
}

trait Workload {
  def name: String
  def prepare(spark: SparkSession, seed: Long): Prepared
}

object Workloads {
  val all: Seq[Workload] = Seq(Corpus, MatchVocab)
  def byName(name: String): Option[Workload] = all.find(_.name == name)

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Fail if a plan about to be timed would read a cache that was already
    * filled: a timed result must be computed, never served from Spark's
    * cache. Caches the plan itself fills while running are allowed.
    */
  def requireComputed(df: DataFrame, what: String): DataFrame = {
    val served = df.queryExecution.withCachedData.collect {
      case r: InMemoryRelation if r.cacheBuilder.isCachedColumnBuffersLoaded => r.cacheBuilder.tableName
    }
    if (served.nonEmpty)
      throw new IllegalStateException(s"$what is served from Spark's cache (${served.mkString(", ")})")
    df
  }

  /** Layer-output materialization for the staged path: a local checkpoint
    * keeps the rows and cuts the lineage, so the next layer starts from
    * them and cannot be replaced by a cached plan.
    */
  def materialize(df: DataFrame, what: String): DataFrame =
    requireComputed(df, what).localCheckpoint()
}

/** `NutritionEstimator.estimate` on the SF=0.1 synthetic RecipeDB corpus
  * (11,807 recipes, ~100k lines), with a freshly trained NER model and the
  * 1,050 USDA foods / 3,383 weight rows as the reference side.
  */
object Corpus extends Workload {
  val name = "corpus_sf0.1"
  val sf   = 0.1

  private val keyCols = Seq("name", "state", "temp", "df").map(col)

  def prepare(spark: SparkSession, seed: Long): Prepared = {
    val (model, nerS) = Workloads.timed(Experiments.trainNer(spark)._1)
    val (ref, refS) = Workloads.timed(
      (UsdaData.foods(spark).localCheckpoint(), UsdaData.weights(spark).localCheckpoint()))
    val (lines, genS) = Workloads.timed(
      RecipeData.ingredientLines(spark, sf, seed)
        .select("recipeId", "lineNo", "phrase", "servings").localCheckpoint())
    new CorpusPrepared(spark, seed, model, ref._1, ref._2, lines,
      Map("ner_train.s" -> nerS, "data.ref_s" -> refS, "data.gen_s" -> genS))
  }

  private final class CorpusPrepared(spark: SparkSession, seed: Long, model: NerModel,
                                     foods: DataFrame, weights: DataFrame, lines: DataFrame,
                                     val setupSeconds: Map[String, Double]) extends Prepared {
    val items: Long = lines.count()

    // Gate truth, computed outside every timed region.
    private lazy val linesPerRecipe: Map[Long, Long] =
      lines.groupBy("recipeId").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    private lazy val gold: Map[Long, Double] =
      RecipeData.recipes(spark, sf, seed).select("recipeId", "goldKcalPerServing").collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap

    def prepareGates(): Unit = { linesPerRecipe; gold }

    def run(): Output = {
      val df = NutritionEstimator.estimate(lines, model, foods, weights)
      Output(Workloads.requireComputed(df, "estimate").collect().toSeq)
    }

    private var last: Option[(DataFrame, DataFrame, DataFrame)] = None

    def staged(tracer: Tracer, runId: String): Output = {
      def span[A](layer: String)(body: => A): A = tracer.span(layer, "run", runId)(body)
      val annotated = span("ner_tag") {
        Workloads.materialize(NerPipeline.annotate(model, lines), "ner_tag")
      }
      val matched = span("match") {
        val unique = annotated.select(keyCols: _*).distinct().withColumn("ingId", xxhash64(keyCols: _*))
        Workloads.materialize(
          JaccardMatcher.matchBest(unique, foods.select("ndbId", "description"), JaccardMatcher.Modified)
            .select("ingId", "ndbId", "score"), "match")
      }
      val resolved = span("units") {
        val withFood = annotated.withColumn("ingId", xxhash64(keyCols: _*)).join(matched, Seq("ingId"), "left")
        Workloads.materialize(UnitMatcher.resolve(withFood, weights), "units")
      }
      val out = span("agg") {
        val perLine = resolved
          .join(foods.select("ndbId", "description", "kcal100g", "protein100g", "fat100g", "carb100g"),
                Seq("ndbId"), "left")
          .withColumn("estKcal",    col("grams") * col("kcal100g") / 100.0)
          .withColumn("estProtein", col("grams") * col("protein100g") / 100.0)
          .withColumn("estFat",     col("grams") * col("fat100g") / 100.0)
          .withColumn("estCarb",    col("grams") * col("carb100g") / 100.0)
          .withColumn("nameMapped", col("ndbId").isNotNull)
          .withColumn("fullyMapped", col("ndbId").isNotNull && col("unitResolved"))
        Output(Workloads.requireComputed(NutritionEstimator.perRecipe(perLine), "agg").collect().toSeq)
      }
      last = Some((annotated, matched, resolved))
      out
    }

    def check(out: Output): Verdict = {
      val recipes = out.rows.map { r =>
        RecipeOut(r.getAs[Long]("recipeId"), r.getAs[Int]("servings"), r.getAs[Long]("nLines"),
                  r.getAs[Long]("nNameMapped"), r.getAs[Long]("nFullyMapped"),
                  r.getAs[Double]("pctNameMapped"), r.getAs[Double]("pctFullyMapped"),
                  r.getAs[Double]("estKcalPerServing"))
      }
      val conserved = CorpusGates.conservation(recipes, linesPerRecipe)
      val summary   = CorpusGates.summary(recipes, gold)
      val aggregate =
        CorpusGates.plausible(summary) ++
          (if (seed == CorpusGates.PaperSeed) CorpusGates.matchesRecorded(summary) else Nil)
      if (aggregate.isEmpty) conserved else Verdict(items, conserved.problems ++ aggregate)
    }

    def layerCounts(): Map[String, Double] = {
      val (annotated, matched, resolved) = last.getOrElse(sys.error("no staged run yet"))
      val phrases   = lines.select("phrase").distinct().count()
      val unique    = annotated.select(keyCols: _*).distinct().withColumn("ingId", xxhash64(keyCols: _*))
      val keys      = unique.count()
      val pairs     = JaccardMatcher.scoreCandidates(unique, foods.select("ndbId", "description")).count()
      val nResolved = resolved.filter(col("unitResolved")).count()
      val fallback  = resolved.filter(col("resolvedUnit").isNotNull &&
        (col("stdUnit").isNull || col("resolvedUnit") =!= col("stdUnit"))).count()
      Map(
        "ner_tag.lines" -> annotated.count().toDouble,
        "ner_tag.lines_per_distinct_phrase" -> items.toDouble / phrases,
        "match.keys" -> keys.toDouble,
        "match.candidate_pairs" -> pairs.toDouble,
        "match.pairs_per_key" -> pairs.toDouble / keys,
        "match.mapped_frac" -> matched.count().toDouble / keys,
        "units.lines" -> resolved.count().toDouble,
        "units.resolved_frac" -> nResolved.toDouble / items,
        "units.fallback_lines" -> fallback.toDouble,
        "agg.recipes" -> linesPerRecipe.size.toDouble,
      )
    }
  }
}

/** `JaccardMatcher.matchBest` under both metrics on seeded distinct
  * ingredient keys: an alias name plus 0–2 description-vocabulary tokens, a
  * state word on three keys in four, and the nine Table III rows.
  */
object MatchVocab extends Workload {
  val name = "match_vocab"
  val nKeys = 20000
  /** Keys besides the Table III rows that the brute-force oracle scores. */
  val OracleSample = 2000

  private val metrics = Seq("modified" -> JaccardMatcher.Modified, "vanilla" -> JaccardMatcher.Vanilla)

  def keys(seed: Long, n: Int): IndexedSeq[MatchOracle.Key] = {
    val rng     = new Random(seed)
    val aliases = UsdaData.allAliases.toIndexedSeq
    val vocab   = UsdaData.allFoods.flatMap(_.description.toLowerCase.split("[^a-z]+"))
      .filter(_.length > 2).distinct.sorted.toIndexedSeq
    val states  = (aliases.map(_.state).filter(_.nonEmpty) ++
      Seq("chopped", "diced", "minced", "sliced", "ground", "grated", "melted")).distinct.sorted.toIndexedSeq
    val picked  = scala.collection.mutable.LinkedHashSet.empty[(String, String, String, String)]
    Experiments.TableIIIRows.foreach { case (n, s, _, _) => picked += ((n, s, "", "")) }
    while (picked.size < n) {
      val a     = aliases(rng.nextInt(aliases.size))
      val extra = Seq.fill(rng.nextInt(3))(vocab(rng.nextInt(vocab.size)))
      val state = if (rng.nextInt(4) == 0) "" else states(rng.nextInt(states.size))
      picked += (((a.name +: extra).mkString(" "), state, a.temp, a.df))
    }
    picked.toIndexedSeq.zipWithIndex.map { case ((nm, s, t, d), i) => MatchOracle.Key(i.toLong, nm, s, t, d) }
  }

  def prepare(spark: SparkSession, seed: Long): Prepared = {
    import spark.implicits._
    val (ref, refS) = Workloads.timed(
      UsdaData.foods(spark).select("ndbId", "description").localCheckpoint())
    val ((ks, keysDf), genS) = Workloads.timed {
      val ks = keys(seed, nKeys)
      (ks, ks.toDF().localCheckpoint())
    }
    new MatchPrepared(seed, ref, ks, keysDf, Map("data.ref_s" -> refS, "data.gen_s" -> genS))
  }

  private final class MatchPrepared(seed: Long, ref: DataFrame, ks: IndexedSeq[MatchOracle.Key], keysDf: DataFrame,
                                    val setupSeconds: Map[String, Double]) extends Prepared {
    val items: Long = ks.size.toLong * metrics.size

    // The oracle scores the Table III rows plus a seeded sample of the keys.
    private lazy val foods = ref.collect().map(r => r.getLong(0) -> r.getString(1)).toSeq
    private lazy val scored: IndexedSeq[MatchOracle.Key] =
      ks.take(Experiments.TableIIIRows.size) ++
        new Random(seed).shuffle(ks.drop(Experiments.TableIIIRows.size)).take(OracleSample)
    private lazy val oracle: Map[String, Map[Long, MatchOracle.Best]] = {
      val (m, v) = MatchOracle.best(scored, foods)
      Map("modified" -> m, "vanilla" -> v)
    }

    def prepareGates(): Unit = oracle

    private def matchOne(label: String, metric: JaccardMatcher.Metric): Seq[Row] = {
      val df = JaccardMatcher.matchBest(keysDf, ref, metric)
        .select(lit(label).as("metric"), col("ingId"), col("ndbId"), col("score"))
      Workloads.requireComputed(df, s"match ($label)").collect().toSeq
    }

    def run(): Output = Output(metrics.flatMap { case (label, m) => matchOne(label, m) })

    private var lastMapped = 0L

    def staged(tracer: Tracer, runId: String): Output = {
      val out = Output(metrics.flatMap { case (label, m) =>
        tracer.span("match", "run", runId)(matchOne(label, m))
      })
      lastMapped = out.rows.count(_.getString(0) == "modified").toLong
      out
    }

    def check(out: Output): Verdict = {
      val byMetric = out.rows.groupBy(_.getString(0))
      val verdicts = metrics.map { case (label, _) =>
        val got = byMetric.getOrElse(label, Seq.empty).groupBy(_.getLong(1)).map { case (id, rs) =>
          id -> rs.map(r => MatchOracle.Best(r.getLong(2), r.getDouble(3)))
        }
        MatchOracle.check(ks, got, oracle(label), scored.map(_.ingId).toSet, foods.map(_._1).toSet, label)
      }
      Verdict(verdicts.map(_.failedItems).sum, verdicts.flatMap(_.problems))
    }

    def layerCounts(): Map[String, Double] = {
      val pairs = JaccardMatcher.scoreCandidates(keysDf, ref).count()
      Map(
        "match.keys" -> ks.size.toDouble,
        "match.candidate_pairs" -> pairs.toDouble,
        "match.pairs_per_key" -> pairs.toDouble / ks.size,
        "match.mapped_frac" -> lastMapped.toDouble / ks.size,
      )
    }
  }
}

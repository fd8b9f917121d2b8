package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropChecks, SparkSpec, TestModels}
import repro.data.{RecipeData, UsdaData}

/** The index-based [[JaccardMatcher]] against the DataFrame oracle
  * [[JaccardMatcherOracle]]: under both metrics, `matchBest` rows and
  * `scoreCandidates` row sets must be exactly equal (doubles bit for bit).
  */
class JaccardMatcherParitySpec extends SparkSpec with PropChecks {

  import spark.implicits._

  private lazy val reference = UsdaData.foods(spark).select("ndbId", "description").cache()

  private val metrics = Seq(JaccardMatcher.Modified, JaccardMatcher.Vanilla)

  /** A row's values in a canonical order, doubles as their raw bits. */
  private def canon(rows: Array[Row]): Seq[String] =
    rows.toSeq.map(_.toSeq.map {
      case d: Double => s"d${java.lang.Double.doubleToRawLongBits(d)}"
      case v         => String.valueOf(v)
    }.mkString("|")).sorted

  /** Both matcher outputs, as canonical rows, plus their column names and
    * types in order.
    */
  private def outputs(matchBest: (DataFrame, DataFrame, JaccardMatcher.Metric) => DataFrame,
                      scoreCandidates: (DataFrame, DataFrame) => DataFrame,
                      keys: DataFrame): Map[String, Seq[String]] = {
    def schema(df: DataFrame) = df.schema.map(f => s"${f.name}: ${f.dataType}")
    val best = metrics.map(m => m.toString -> matchBest(keys, reference, m))
    val scored = scoreCandidates(keys, reference)
    (best.map { case (m, df) => m -> canon(df.collect()) } ++ Seq(
      "candidates" -> canon(scored.collect()),
      "matchBest schema" -> schema(best.head._2),
      "scoreCandidates schema" -> schema(scored))).toMap
  }

  private def expected(keys: DataFrame) =
    outputs(JaccardMatcherOracle.matchBest, JaccardMatcherOracle.scoreCandidates, keys)
  private def actual(keys: DataFrame) =
    outputs(JaccardMatcher.matchBest, JaccardMatcher.scoreCandidates, keys)

  private def diff(exp: Map[String, Seq[String]], act: Map[String, Seq[String]]): Seq[String] =
    exp.keys.toSeq.sorted.collect {
      case k if exp(k) != act(k) =>
        s"$k: oracle-only ${exp(k).diff(act(k)).take(3)}, index-only ${act(k).diff(exp(k)).take(3)}"
    }

  /** Distinct (name, state, temp, df) keys of the SF=0.01 corpus after NER,
    * as `perLine` matches them.
    */
  private lazy val corpusKeys: DataFrame = {
    val keys = Seq("name", "state", "temp", "df").map(col)
    val lines = RecipeData.ingredientLines(spark, sf = 0.01, seed = 7)
      .select("recipeId", "lineNo", "phrase", "servings")
    NerPipeline.annotate(TestModels.ner, lines)
      .select(keys: _*).distinct()
      .withColumn("ingId", xxhash64(keys: _*))
      .cache()
  }

  private lazy val corpusExpected = expected(corpusKeys)

  test("parity with the DataFrame oracle on the SF=0.01 corpus keys, both metrics") {
    val act = actual(corpusKeys)
    assert(diff(corpusExpected, act).isEmpty, diff(corpusExpected, act).mkString("; "))
    // The corpus has mapped and unmapped keys, and the metrics disagree.
    assert(act("Modified").size < corpusKeys.count())
    assert(act("Modified") != act("Vanilla"))
  }

  test("parity holds whether the keys have 1, 7 or 64 partitions") {
    for (n <- Seq(1, 7, 64)) {
      val bad = diff(corpusExpected, actual(corpusKeys.repartition(n)))
      assert(bad.isEmpty, s"$n partitions: ${bad.mkString("; ")}")
    }
  }

  test("property: parity on generated keys (nulls, stop words, negations, repeats, Unicode, 10k chars)") {
    val vocab = UsdaData.allFoods.take(60).flatMap(_.description.toLowerCase.split("[^a-z]+"))
      .filter(_.nonEmpty).distinct
    val word = Gen.frequency(
      8 -> Gen.oneOf(vocab),
      1 -> Gen.oneOf("the", "and", "of", "with", "unsalted", "without", "no", "non", "uncooked"),
      1 -> Gen.oneOf("crème", "jalapeño", "piñon", "北京", "🍅", "naïve", "ßutter"))
    val name = Gen.frequency(
      6 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, word)).map(_.mkString(" ")),
      1 -> Gen.oneOf("unsalted", "without", "the of and", "no"),
      1 -> word.map(w => Seq.fill(4)(w).mkString(" ")),
      1 -> word.map(w => (w + " ") * (10000 / (w.length + 1))),
      1 -> Gen.oneOf("", null: String))
    val field = Gen.frequency(4 -> Gen.const(""), 1 -> Gen.const(null: String), 3 -> word)
    val key = for { n <- name; s <- field; t <- field; d <- field } yield (n, s, t, d)
    val batch = Gen.choose(20, 120).flatMap(Gen.listOfN(_, key))
    checkProp(Prop.forAllNoShrink(batch) { rows =>
      val keys = rows.zipWithIndex
        .map { case ((n, s, t, d), i) => (i.toLong, n, s, t, d) }
        .toDF("ingId", "name", "state", "temp", "df")
      val bad = diff(expected(keys), actual(keys))
      if (bad.nonEmpty) fail(bad.mkString("; "))
      true
    }, minTests = 8)
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropChecks, SparkSpec, TestModels}
import repro.data.{RecipeData, UsdaData}

/** The index-based [[UnitMatcher.resolve]] against the DataFrame oracle
  * [[UnitMatcherOracle.resolve]]: every column the resolver adds must be
  * exactly equal, line by line (doubles bit for bit).
  */
class UnitMatcherParitySpec extends SparkSpec with PropChecks {

  import spark.implicits._

  private lazy val foods   = UsdaData.foods(spark).cache()
  private lazy val weights = UsdaData.weights(spark).cache()

  private val outCols = Seq("qty", "stdUnit", "resolvedUnit", "gramsPerUnit", "grams", "unitResolved")

  /** The resolver's added columns keyed by the input's `id` column; fails if
    * an id comes back more than once.
    */
  private def resolvedById(resolver: (DataFrame, DataFrame) => DataFrame,
                           lines: DataFrame): Map[Long, Seq[Any]] = {
    val rows = resolver(lines, weights).select(col("id") +: outCols.map(col): _*).collect()
    val byId = rows.map(r => r.getLong(0) -> r.toSeq.tail).toMap
    assert(byId.size == rows.length, "a line came back more than once")
    byId
  }

  private def diff(expected: Map[Long, Seq[Any]], actual: Map[Long, Seq[Any]]): Seq[String] =
    (expected.keySet ++ actual.keySet).toSeq.sorted.collect {
      case id if expected.get(id) != actual.get(id) =>
        s"id $id: oracle ${expected.get(id)} vs index ${actual.get(id)}"
    }

  /** SF=0.01 corpus after NER and J* matching, as `perLine` feeds it to the
    * resolver; `id` identifies the line.
    */
  private lazy val corpusLines: DataFrame = {
    val keys = Seq("name", "state", "temp", "df").map(col)
    val lines = RecipeData.ingredientLines(spark, sf = 0.01, seed = 7)
      .select("recipeId", "lineNo", "phrase", "servings")
    val annotated = NerPipeline.annotate(TestModels.ner, lines)
    val unique = annotated.select(keys: _*).distinct().withColumn("ingId", xxhash64(keys: _*))
    val matched = JaccardMatcher
      .matchBest(unique, foods.select("ndbId", "description"), JaccardMatcher.Modified)
      .select("ingId", "ndbId")
    annotated
      .withColumn("ingId", xxhash64(keys: _*))
      .join(matched, Seq("ingId"), "left")
      .withColumn("id", col("recipeId") * 100 + col("lineNo"))
      .cache()
  }

  private lazy val corpusExpected = resolvedById(UnitMatcherOracle.resolve, corpusLines)

  test("parity with the DataFrame oracle on the SF=0.01 corpus") {
    val actual = resolvedById(UnitMatcher.resolve, corpusLines)
    assert(actual.size == corpusLines.count())
    val bad = diff(corpusExpected, actual)
    assert(bad.size == 0, s"lines differ: ${bad.take(5).mkString("; ")}")
    // The corpus exercises the fallback, not only the first pass.
    assert(actual.values.exists(v => v(2) != null && v(1) != v(2)))
  }

  test("parity holds whether the corpus has 1, 7 or 64 partitions") {
    for (n <- Seq(1, 7, 64)) {
      val bad = diff(corpusExpected, resolvedById(UnitMatcher.resolve, corpusLines.repartition(n)))
      assert(bad.size == 0, s"$n partitions: ${bad.take(5).mkString("; ")}")
    }
  }

  test("property: parity on generated lines (nulls, junk and USDA-style units, 500 cups)") {
    val ids   = UsdaData.allWeights.map(_.ndbId).distinct
    val units = UsdaData.allWeights.map(_.unit).distinct ++ Seq(
      "tbsp", "tablespoons", "cups", "cup, chopped", "tsp", "g", "lb", "oz", "kg", "fl oz",
      "ml", "clove", "pinch", "small", "large", "", null, "xyzzy", "1/2", "  ")
    val line = for {
      name <- Gen.frequency(8 -> Gen.oneOf("butter", "garlic", "onion", "flour", "x"),
                            1 -> Gen.const(""), 1 -> Gen.const(null: String))
      qty  <- Gen.oneOf("1", "2", "1/2", "2 1/2", "2-4", "500", "5001", "500 1", "0", "abc", "", null)
      unit <- Gen.oneOf(units)
      size <- Gen.oneOf("", "", "small", "medium", "large", null)
      ndb  <- Gen.frequency(6 -> Gen.oneOf(ids).map(java.lang.Long.valueOf),
                            1 -> Gen.const(null: java.lang.Long),
                            1 -> Gen.const(java.lang.Long.valueOf(-5L)))
    } yield (name, qty, unit, size, ndb)
    val batch = Gen.choose(20, 200).flatMap(Gen.listOfN(_, line))
    checkProp(Prop.forAllNoShrink(batch) { rows =>
      val df = rows.zipWithIndex
        .map { case ((name, qty, unit, size, ndb), i) => (i.toLong, name, qty, unit, size, ndb) }
        .toDF("id", "name", "quantity", "unit", "size", "ndbId")
      val bad = diff(resolvedById(UnitMatcherOracle.resolve, df), resolvedById(UnitMatcher.resolve, df))
      if (bad.nonEmpty) fail(s"${bad.size} lines differ: ${bad.take(5).mkString("; ")}")
      true
    }, minTests = 12)
  }
}

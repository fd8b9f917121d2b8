package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.nlp.NerModel

/** End-to-end nutritional profile estimation (Figure 1's system
  * architecture): NER extraction → closest-description annotation → unit
  * matching → per-line nutrient calculation → per-recipe aggregation.
  *
  * Matching scores each line's (name, state, temp, df) against an index of
  * the USDA descriptions built on the driver ([[JaccardMatcher.FoodIndex]])
  * inside a UDF, so it needs no shuffle and no join back onto the lines. The
  * one reference-sized table joined onto the lines, the USDA foods, carries
  * an explicit `broadcast` hint, so the full corpus is never shuffled for it.
  */
object NutritionEstimator {

  /** Estimated nutrients: output column suffix → foods column per 100 g. */
  private val Nutrients = Seq("Kcal" -> "kcal100g", "Protein" -> "protein100g",
                              "Fat" -> "fat100g", "Carb" -> "carb100g")

  /** Structured per-line estimate.
    *
    * @param lines   columns: recipeId, lineNo, phrase, servings
    * @param model   trained NER model
    * @param foods   USDA foods: ndbId, description, kcal100g, …
    * @param weights USDA gram weights
    * @return per-line DataFrame with name/state/…, ndbId, description,
    *         grams, estKcal, nameMapped, fullyMapped
    */
  def perLine(lines: DataFrame, model: NerModel,
              foods: DataFrame, weights: DataFrame): DataFrame = {
    val annotated = NerPipeline.annotate(model, lines).cache()

    val bestMatch = JaccardMatcher.bestUdf(foods, JaccardMatcher.Modified)
    val withFood = annotated
      .withColumn("best", bestMatch(col("name"), col("state"), col("temp"), col("df")))
      .select(col("*"), col("best.ndbId"), col("best.score")).drop("best")

    val resolved = UnitMatcher.resolve(withFood, weights)

    val withFoods = resolved.join(
      broadcast(foods.select(col("ndbId") +: col("description") +: Nutrients.map(n => col(n._2)): _*)),
      Seq("ndbId"), "left")
    Nutrients
      .foldLeft(withFoods) { case (df, (name, per100g)) =>
        df.withColumn(s"est$name", col("grams") * col(per100g) / 100.0)
      }
      .withColumn("nameMapped", col("ndbId").isNotNull)
      .withColumn("fullyMapped", col("ndbId").isNotNull && col("unitResolved"))
  }

  /** Per-recipe nutritional profile plus mapping statistics.
    *
    * @return recipeId, servings, nLines, nNameMapped, nFullyMapped,
    *         pctNameMapped, pctFullyMapped, estKcal, estKcalPerServing (and
    *         protein/fat/carb totals); estKcalPerServing is null when
    *         servings is null or not positive
    */
  def perRecipe(perLineDf: DataFrame): DataFrame =
    perLineDf
      .groupBy(col("recipeId"), col("servings"))
      .agg(
        count(lit(1)).as("nLines"),
        sum(when(col("nameMapped"), 1).otherwise(0)).as("nNameMapped") +:
        sum(when(col("fullyMapped"), 1).otherwise(0)).as("nFullyMapped") +:
        Nutrients.map { case (name, _) => sum(coalesce(col(s"est$name"), lit(0.0))).as(s"est$name") }: _*
      )
      .withColumn("pctNameMapped",  col("nNameMapped") * 100.0 / col("nLines"))
      .withColumn("pctFullyMapped", col("nFullyMapped") * 100.0 / col("nLines"))
      .withColumn("estKcalPerServing",
        when(col("servings") > 0, col("estKcal") / col("servings")))

  /** Full pipeline: lines in, per-recipe profiles out. */
  def estimate(lines: DataFrame, model: NerModel,
               foods: DataFrame, weights: DataFrame): DataFrame =
    perRecipe(perLine(lines, model, foods, weights))
}

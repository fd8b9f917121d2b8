package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Test-only oracle for [[JaccardMatcher]]: §II-B matching expressed purely
  * as DataFrame operations. Both sides are exploded to (id, token) rows and
  * joined on the token, grouped per (ingredient, food) pair, joined back to
  * the ingredient sizes, and ranked by a window. It is slow but obviously
  * faithful to the paper's description, so the index-based matcher must
  * reproduce its output exactly.
  */
object JaccardMatcherOracle {

  private val prepIngredientUdf = udf { (name: String, state: String, temp: String, df: String) =>
    TextPrep.prepIngredient(name, state, temp, df).toSeq
  }
  private val prepDescriptionUdf = udf { (desc: String) =>
    TextPrep.prepDescription(desc).map(pt => (pt.token, pt.priority))
  }
  private val hasRawUdf = udf { (desc: String) => TextPrep.descriptionHasRaw(desc) }

  /** Same contract as [[JaccardMatcher.scoreCandidates]]. */
  def scoreCandidates(ingredients: DataFrame, reference: DataFrame): DataFrame = {
    val a = ingredients
      .withColumn("aTokens", prepIngredientUdf(col("name"), col("state"), col("temp"), col("df")))
      .withColumn("aSize", size(col("aTokens")))
      .withColumn("noState", col("state").isNull || col("state") === "")
      .select("ingId", "aTokens", "aSize", "noState")

    val b = reference
      .withColumn("bTokens", prepDescriptionUdf(col("description")))
      .withColumn("bSize", size(col("bTokens")))
      .withColumn("hasRaw", hasRawUdf(col("description")))
      .select("ndbId", "bTokens", "bSize", "hasRaw")

    val aTok = a.select(col("ingId"), explode(col("aTokens")).as("token"))
    val bTok = b.select(col("ndbId"), col("bSize"), col("hasRaw"),
                        explode(col("bTokens")).as("tp"))
      .select(col("ndbId"), col("bSize"), col("hasRaw"),
              col("tp._1").as("token"), col("tp._2").as("priority"))

    aTok.join(bTok, "token")
      .groupBy(col("ingId"), col("ndbId"))
      .agg(
        count(lit(1)).as("inter"),
        min(col("priority")).as("bestPriority"),
        first(col("bSize")).as("bSize"),
        first(col("hasRaw")).as("hasRaw"),
      )
      .join(a.select("ingId", "aSize", "noState"), "ingId")
      .withColumn("rawBonus",
        when(col("hasRaw") && col("noState"), lit(1)).otherwise(lit(0)))
      .withColumn("jstar", col("inter") / col("aSize"))
      .withColumn("jvanilla", col("inter") / (col("aSize") + col("bSize") - col("inter")))
      .drop("hasRaw", "noState")
  }

  /** Same contract as [[JaccardMatcher.matchBest]]. */
  def matchBest(ingredients: DataFrame, reference: DataFrame,
                metric: JaccardMatcher.Metric = JaccardMatcher.Modified): DataFrame = {
    val scored   = scoreCandidates(ingredients, reference)
    val scoreCol = metric match {
      case JaccardMatcher.Modified => col("jstar")
      case JaccardMatcher.Vanilla  => col("jvanilla")
    }
    val w = Window.partitionBy(col("ingId")).orderBy(
      scoreCol.desc, col("rawBonus").desc, col("bestPriority").asc, col("ndbId").asc)
    scored
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") === 1)
      .select(col("ingId"), col("ndbId"), scoreCol.as("score"),
              col("inter"), col("aSize"), col("bestPriority"))
  }
}

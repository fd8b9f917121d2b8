package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Test-only oracle for [[UnitMatcher.resolve]]: the §II-C chain expressed
  * purely as DataFrame joins and windows (weights standardized and deduped
  * by a window, the first volumetric measure by another, two suffix-renamed
  * lookup joins, and a count + window mode fallback). It is slow but
  * obviously faithful to the paper's description, so the index-based
  * resolver must reproduce its output exactly, line by line.
  */
object UnitMatcherOracle {

  private val qtyUdf = udf { (q: String) => QuantityParser.parse(q) }
  private val stdUdf = udf { (u: String) => UnitTables.standardize(u) }
  private val massUdf = udf { (u: String) => Option(u).flatMap(UnitTables.massGrams.get) }
  private val isVolUdf = udf { (u: String) => UnitTables.isVolumetric(u) }
  private val volRatioUdf = udf { (target: String, known: String) =>
    for {
      tu <- Option(target); ku <- Option(known)
      t  <- UnitTables.volumeMl.get(tu); k <- UnitTables.volumeMl.get(ku)
    } yield t / k
  }

  /** One row per (ndbId, stdUnit), keeping the lowest-seq row. */
  def standardizedWeights(weights: DataFrame): DataFrame = {
    val w = Window.partitionBy(col("ndbId"), col("stdUnit")).orderBy(col("seq").asc)
    weights
      .withColumn("stdUnit", stdUdf(col("unit")))
      .filter(col("stdUnit") =!= "")
      .withColumn("gpa", col("grams") / col("amount"))
      .withColumn("rk", row_number().over(w))
      .filter(col("rk") === 1)
      .select("ndbId", "stdUnit", "gpa", "seq")
  }

  /** First volumetric measure each food lists. */
  def firstVolumetric(weightsStd: DataFrame): DataFrame = {
    val w = Window.partitionBy(col("ndbId")).orderBy(col("seq").asc)
    weightsStd
      .filter(isVolUdf(col("stdUnit")))
      .withColumn("rk", row_number().over(w))
      .filter(col("rk") === 1)
      .select(col("ndbId"), col("stdUnit").as("volUnit"), col("gpa").as("volGpa"))
  }

  private def lookupGpa(lines: DataFrame, weightsStd: DataFrame, firstVol: DataFrame,
                        unitCol: String, outCol: String): DataFrame = {
    val sfx = outCol
    val wRenamed = weightsStd
      .select(col("ndbId").as(s"wNdb_$sfx"), col("stdUnit").as(s"wUnit_$sfx"),
              col("gpa").as(s"wGpa_$sfx"))
    val vRenamed = firstVol
      .select(col("ndbId").as(s"vNdb_$sfx"), col("volUnit").as(s"vUnit_$sfx"),
              col("volGpa").as(s"vGpa_$sfx"))
    lines
      .join(wRenamed,
        col("ndbId") === col(s"wNdb_$sfx") && col(unitCol) === col(s"wUnit_$sfx"), "left")
      .join(vRenamed, col("ndbId") === col(s"vNdb_$sfx"), "left")
      .withColumn(outCol,
        coalesce(
          massUdf(col(unitCol)),
          col(s"wGpa_$sfx"),
          col(s"vGpa_$sfx") * volRatioUdf(col(unitCol), col(s"vUnit_$sfx")),
        ))
      .drop(s"wNdb_$sfx", s"wUnit_$sfx", s"wGpa_$sfx",
            s"vNdb_$sfx", s"vUnit_$sfx", s"vGpa_$sfx")
  }

  /** The full chain; same input and output columns as [[UnitMatcher.resolve]]. */
  def resolve(lines: DataFrame, weights: DataFrame): DataFrame = {
    val weightsStd = standardizedWeights(weights)
    val firstVol   = firstVolumetric(weightsStd)

    val prepared = lines
      .withColumn("qty", coalesce(qtyUdf(col("quantity")), lit(1.0)))
      .withColumn("stdUnit",
        when(stdUdf(col("unit")) =!= "", stdUdf(col("unit")))
          .when(col("size") =!= "", lit("size"))
          .otherwise(lit("")))

    val p1 = lookupGpa(prepared, weightsStd, firstVol, "stdUnit", "gpa1")
      .withColumn("gpa1",
        when(col("qty") * col("gpa1") > UnitMatcher.MaxGramsPerLine, lit(null)).otherwise(col("gpa1")))

    val modeW = Window.partitionBy(col("name")).orderBy(col("cnt").desc, col("stdUnit").asc)
    val modes = p1
      .filter(col("gpa1").isNotNull && col("stdUnit") =!= "")
      .groupBy(col("name"), col("stdUnit")).agg(count(lit(1)).as("cnt"))
      .withColumn("rk", row_number().over(modeW))
      .filter(col("rk") === 1)
      .select(col("name"), col("stdUnit").as("modeUnit"))

    val p2 = p1
      .join(modes, Seq("name"), "left")
      .withColumn("fbUnit", when(col("gpa1").isNull, col("modeUnit")).otherwise(lit(null)))
    val p3 = lookupGpa(p2, weightsStd, firstVol, "fbUnit", "gpa2")

    p3
      .withColumn("gramsPerUnit", coalesce(col("gpa1"), col("gpa2")))
      .withColumn("resolvedUnit",
        when(col("gpa1").isNotNull, col("stdUnit"))
          .when(col("gpa2").isNotNull, col("fbUnit"))
          .otherwise(lit(null)))
      .withColumn("grams", col("qty") * col("gramsPerUnit"))
      .withColumn("unitResolved", col("grams").isNotNull)
      .drop("modeUnit", "fbUnit", "gpa1", "gpa2")
  }
}

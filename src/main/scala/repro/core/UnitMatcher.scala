package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Units matching and gram resolution (§II-C).
  *
  * For every ingredient line (already matched to a USDA food), resolve how
  * many grams one unit of its measure weighs, through the paper's chain:
  *
  *  1. clean the unit (lemmatize → first word → letters only) and resolve
  *     aliases ('tbsp' → tablespoon) via [[UnitTables.standardize]];
  *  2. exact mass units (g/kg/oz/lb) convert directly;
  *  3. look the unit up in the food's USDA gram-weight table;
  *  4. if absent but volumetric, derive it from the first volumetric unit the
  *     food lists, using the Book-of-Yields volume table (butter has
  *     tablespoon=14.2g, so teaspoon = 14.2 × 4.93/14.79 ≈ 4.73g);
  *  5. sizes small/medium/large are one equivalent unit ("size");
  *  6. implausible results (> 5 kg for one line, the '500 cups' failure mode)
  *     invalidate the unit;
  *  7. lines still unresolved (missing or invalid unit) fall back to the
  *     ingredient's corpus-wide most-frequent successfully-resolved unit and
  *     retry steps 2–4. The retry applies no 5 kg check.
  *
  * The reference side is small (a few gram weights per food), so steps 2–4
  * are one pure function, [[GramWeights.gramsPerUnit]], over an index
  * collected on the driver. It reaches the tasks inside the UDF closure,
  * which Spark broadcasts once per stage as part of the task binary. The
  * only Spark aggregation left is step 7's per-name mode; its result, one
  * row per ingredient name, is broadcast-joined back onto the lines.
  */
object UnitMatcher {

  /** §II-C plausibility threshold: more than 5 kg in one ingredient line
    * means the unit was mis-detected.
    */
  val MaxGramsPerLine: Double = 5000.0

  /** USDA gram weights indexed for steps 2–4.
    *
    * @param listed          grams per unit of the lowest-seq row of each
    *                        (ndbId, stdUnit); USDA lists dominant measures first
    * @param firstVolumetric each food's first-listed volumetric measure:
    *                        (stdUnit, grams per unit)
    */
  final case class GramWeights(listed: Map[(Long, String), Double],
                               firstVolumetric: Map[Long, (String, Double)]) {

    /** Grams per one `stdUnit` of food `ndbId`: mass unit, else the food's
      * listed unit, else a volume conversion from its first volumetric unit.
      */
    def gramsPerUnit(ndbId: Option[Long], stdUnit: String): Option[Double] =
      Option(stdUnit).flatMap { unit =>
        UnitTables.massGrams.get(unit)
          .orElse(ndbId.flatMap(id => listed.get((id, unit))))
          .orElse(for {
            id                <- ndbId
            (volUnit, volGpa) <- firstVolumetric.get(id)
            t                 <- UnitTables.volumeMl.get(unit)
            k                 <- UnitTables.volumeMl.get(volUnit)
          } yield volGpa * (t / k))
      }
  }

  object GramWeights {
    /** Collect a weight table (ndbId, seq, amount, unit, grams) on the
      * driver and index it: the resolver's one eager Spark action.
      */
    def of(weights: DataFrame): GramWeights = {
      val rows = weights.select("ndbId", "seq", "unit", "grams", "amount").collect().toSeq
        .map(r => (r.getLong(0), r.getInt(1), UnitTables.standardize(r.getString(2)),
                   r.getDouble(3) / r.getDouble(4)))
        .filter(_._3.nonEmpty)
        .sortBy(r => (r._1, r._2))
      val listed = rows.groupBy(r => (r._1, r._3)).map { case (key, rs) => key -> rs.head._4 }
      val firstVolumetric = rows.filter(r => UnitTables.isVolumetric(r._3)).groupBy(_._1)
        .map { case (id, rs) => id -> (rs.head._3, rs.head._4) }
      GramWeights(listed, firstVolumetric)
    }
  }

  private val qtyUdf = udf { (q: String) => QuantityParser.parse(q) }
  private val stdUnitUdf = udf { (unit: String, size: String) =>
    val std = UnitTables.standardize(unit)
    if (std.nonEmpty) std else if (size != null && size.nonEmpty) "size" else ""
  }

  /** Full §II-C resolution.
    *
    * @param lines   columns: name (extracted ingredient name), quantity
    *                (textual), unit (raw), size (size word or ""), ndbId
    *                (matched food, nullable)
    * @param weights USDA gram-weight table: ndbId, seq, amount, unit, grams
    * @return input plus qty, stdUnit, resolvedUnit, gramsPerUnit, grams,
    *         unitResolved
    */
  def resolve(lines: DataFrame, weights: DataFrame): DataFrame = {
    val index = GramWeights.of(weights)
    val gpaUdf = udf { (ndbId: java.lang.Long, stdUnit: String) =>
      index.gramsPerUnit(Option(ndbId).map(_.longValue), stdUnit)
    }

    // Pass 1: resolve the detected unit; invalidate implausible results.
    val p1 = lines
      .withColumn("qty", coalesce(qtyUdf(col("quantity")), lit(1.0)))
      .withColumn("stdUnit", stdUnitUdf(col("unit"), col("size")))
      .withColumn("gpa1", gpaUdf(col("ndbId"), col("stdUnit")))
      .withColumn("gpa1",
        when(col("qty") * col("gpa1") > MaxGramsPerLine, lit(null)).otherwise(col("gpa1")))

    // Most-frequent successfully-resolved unit per ingredient name; ties go
    // to the alphabetically lowest unit.
    val modes = p1
      .filter(col("gpa1").isNotNull)
      .groupBy(col("name"))
      .agg(mode(col("stdUnit"), deterministic = true).as("modeUnit"))

    // Pass 2: unresolved lines retry with the fallback unit.
    p1
      .join(broadcast(modes), Seq("name"), "left")
      .withColumn("fbUnit", when(col("gpa1").isNull, col("modeUnit")))
      .withColumn("gramsPerUnit", coalesce(col("gpa1"), gpaUdf(col("ndbId"), col("fbUnit"))))
      .withColumn("resolvedUnit",
        when(col("gpa1").isNotNull, col("stdUnit"))
          .when(col("gramsPerUnit").isNotNull, col("fbUnit")))
      .withColumn("grams", col("qty") * col("gramsPerUnit"))
      .withColumn("unitResolved", col("grams").isNotNull)
      .drop("modeUnit", "fbUnit", "gpa1")
  }
}

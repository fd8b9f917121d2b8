package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._

/** Closest-description annotation via string-similarity matching (§II-B).
  *
  * Implements both metrics of the paper:
  *  - **modified Jaccard** (the contribution): J*(A,B) = |A∩B| / |A|, which
  *    removes the vanilla index's bias against long, detailed USDA
  *    descriptions (heuristic (e));
  *  - **vanilla Jaccard** (the baseline): J(A,B) = |A∩B| / |A∪B|.
  *
  * A is the preprocessed token set of the ingredient name joined with its
  * STATE/TEMP/DRY-FRESH entities (heuristic (d)); B the preprocessed token
  * set of a USDA description, each token carrying the sequence number of its
  * comma group (heuristics (a),(h)). Preprocessing is lemmatization,
  * stop-word removal, uniform casing (b) and negation normalization (f).
  *
  * Collision resolution (heuristics (g),(h),(i)), applied in order:
  *   score desc → raw-provision bonus desc → best matched-term priority asc
  *   → NDB index asc (first match in database order).
  *
  * The reference side is small (1,050 foods), so it is collected on the
  * driver into a [[FoodIndex]], an inverted index from token to the foods
  * that hold it. Scoring an ingredient walks the postings of its own tokens,
  * so cost is proportional to the number of shared-token pairs, never
  * |ingredients| × |foods|. The index reaches the tasks inside a UDF
  * closure; no ingredient row is shuffled or joined.
  */
object JaccardMatcher {

  /** One (ingredient, food) pair that shares at least one token. */
  final case class Candidate(ndbId: Long, inter: Long, bestPriority: Int, bSize: Int, aSize: Int,
                             rawBonus: Int, jstar: Double, jvanilla: Double)

  sealed trait Metric { def score(c: Candidate): Double }
  case object Modified extends Metric { def score(c: Candidate): Double = c.jstar }
  case object Vanilla  extends Metric { def score(c: Candidate): Double = c.jvanilla }

  /** An ingredient's best food, as [[matchBest]] reports it. */
  final case class Match(ndbId: Long, score: Double, inter: Long, aSize: Int, bestPriority: Int)

  /** USDA descriptions indexed for matching: token → (ndbId, priority of
    * the token's comma group), and each food's |B| and "raw" provision.
    */
  final case class FoodIndex(postings: Map[String, Seq[(Long, Int)]], bSize: Map[Long, Int],
                             hasRaw: Set[Long]) {

    /** Every food sharing a token with the ingredient, under both metrics. */
    def candidates(name: String, state: String, temp: String, df: String): Seq[Candidate] = {
      val a       = TextPrep.prepIngredient(name, state, temp, df)
      val noState = state == null || state.isEmpty
      a.toSeq.flatMap(postings.getOrElse(_, Nil)).groupBy(_._1).toSeq.map { case (id, hits) =>
        val inter = hits.size.toLong
        Candidate(id, inter, hits.map(_._2).min, bSize(id), a.size, if (noState && hasRaw(id)) 1 else 0,
                  inter.toDouble / a.size, inter.toDouble / (a.size + bSize(id) - inter))
      }
    }

    /** The best candidate under the collision resolution order; None when
      * no food shares a token.
      */
    def best(name: String, state: String, temp: String, df: String, metric: Metric): Option[Candidate] = {
      import Ordering.Double.TotalOrdering
      candidates(name, state, temp, df)
        .minByOption(c => (-metric.score(c), -c.rawBonus, c.bestPriority, c.ndbId))
    }
  }

  object FoodIndex {
    /** Collect a reference table (ndbId, description) on the driver and
      * index it: the matcher's one eager Spark action.
      */
    def of(reference: DataFrame): FoodIndex = {
      val foods = reference.select("ndbId", "description").collect().toSeq
        .map(r => (r.getLong(0), r.getString(1), TextPrep.prepDescription(r.getString(1))))
      FoodIndex(
        foods.flatMap { case (id, _, ts) => ts.map(t => t.token -> (id, t.priority)) }.groupMap(_._1)(_._2),
        foods.map { case (id, _, ts) => id -> ts.size }.toMap,
        foods.collect { case (id, d, _) if TextPrep.descriptionHasRaw(d) => id }.toSet)
    }
  }

  private val keyCols = Seq("name", "state", "temp", "df").map(col)

  /** (name, state, temp, df) → the best [[Match]] in `reference`, or null. */
  def bestUdf(reference: DataFrame, metric: Metric = Modified): UserDefinedFunction = {
    val index = FoodIndex.of(reference)
    udf { (name: String, state: String, temp: String, df: String) =>
      index.best(name, state, temp, df, metric)
        .map(c => Match(c.ndbId, metric.score(c), c.inter, c.aSize, c.bestPriority))
    }
  }

  /** Score every (ingredient, candidate description) pair that shares at
    * least one token, under both metrics.
    *
    * @param ingredients columns: ingId, name, state, temp, df (strings)
    * @param reference   columns: ndbId, description
    * @return ingId, ndbId, inter, bestPriority, bSize, aSize, rawBonus,
    *         jstar, jvanilla
    */
  def scoreCandidates(ingredients: DataFrame, reference: DataFrame): DataFrame = {
    val index = FoodIndex.of(reference)
    val candidatesUdf = udf { (name: String, state: String, temp: String, df: String) =>
      index.candidates(name, state, temp, df)
    }
    ingredients.select(col("ingId"), explode(candidatesUdf(keyCols: _*)).as("c")).select("ingId", "c.*")
  }

  /** Best match per ingredient under the chosen metric. Ingredients sharing
    * no token with any description are absent from the result (unmapped —
    * the paper reports 94.49% of unique ingredients mapped).
    *
    * @return ingId, ndbId, score, inter, aSize, bestPriority
    */
  def matchBest(ingredients: DataFrame, reference: DataFrame, metric: Metric = Modified): DataFrame =
    ingredients
      .select(col("ingId"), bestUdf(reference, metric)(keyCols: _*).as("best"))
      .filter(col("best").isNotNull)
      .select("ingId", "best.*")
}

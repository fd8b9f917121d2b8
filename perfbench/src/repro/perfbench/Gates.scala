package repro.perfbench

import scala.math.BigDecimal.RoundingMode

import repro.core.TextPrep

/** One per-recipe output row, the fields the corpus gates read. */
final case class RecipeOut(recipeId: Long, servings: Int, nLines: Long, nNameMapped: Long,
                           nFullyMapped: Long, pctNameMapped: Double, pctFullyMapped: Double,
                           estKcalPerServing: Double)

/** Outcome of checking one run: input items without exactly one correct
  * output, and a message per failed check.
  */
final case class Verdict(failedItems: Long, problems: Seq[String]) {
  def ok: Boolean = problems.isEmpty
}

/** Output gates of the corpus workloads. Every function is pure so the
  * self-test can show that each gate fails on a perturbed output.
  */
object CorpusGates {

  /** Line conservation and per-recipe invariants. Every generated recipe must
    * appear exactly once with `nLines` equal to the lines generated for it;
    * the lines of a recipe that does not count as failed.
    */
  def conservation(out: Seq[RecipeOut], linesPerRecipe: Map[Long, Long]): Verdict = {
    val byId     = out.groupBy(_.recipeId)
    val problems = Seq.newBuilder[String]
    var failed   = 0L
    for ((id, expected) <- linesPerRecipe) {
      val rows = byId.getOrElse(id, Seq.empty)
      val bad =
        if (rows.size != 1) Some(s"recipe $id has ${rows.size} output rows")
        else invariantViolation(rows.head, expected)
      bad.foreach { msg => failed += expected; problems += msg }
    }
    val extra = byId.keySet -- linesPerRecipe.keySet
    if (extra.nonEmpty) {
      problems += s"${extra.size} output recipes were never generated, e.g. ${extra.head}"
      failed += extra.toSeq.flatMap(byId).map(_.nLines).sum
    }
    val outLines = out.map(_.nLines).sum
    val inLines  = linesPerRecipe.values.sum
    if (outLines != inLines) problems += s"sum of nLines is $outLines, $inLines lines were generated"
    Verdict(math.min(inLines, failed), problems.result().take(5))
  }

  private def invariantViolation(r: RecipeOut, expectedLines: Long): Option[String] =
    if (r.nLines != expectedLines) Some(s"recipe ${r.recipeId}: nLines ${r.nLines}, generated $expectedLines")
    else if (!(0 <= r.nFullyMapped && r.nFullyMapped <= r.nNameMapped && r.nNameMapped <= r.nLines))
      Some(s"recipe ${r.recipeId}: mapped counts ${r.nFullyMapped} <= ${r.nNameMapped} <= ${r.nLines} violated")
    else if (math.abs(r.pctNameMapped - r.nNameMapped * 100.0 / r.nLines) > 1e-9 ||
             math.abs(r.pctFullyMapped - r.nFullyMapped * 100.0 / r.nLines) > 1e-9)
      Some(s"recipe ${r.recipeId}: percentages disagree with counts")
    else if (r.servings > 0 && !java.lang.Double.isFinite(r.estKcalPerServing))
      Some(s"recipe ${r.recipeId}: kcal per serving ${r.estKcalPerServing}")
    else None

  /** The paper-facing aggregates of one run: recipes, fully mapped recipes,
    * per-serving calorie MAE against gold on the fully mapped ones, and the
    * Figure 2 distribution (level → bucket → % of recipes, 2 decimals).
    */
  final case class Summary(recipes: Long, fullyMapped: Long, maeKcal: Double,
                           fig2: Map[String, Map[String, Double]])

  def summary(out: Seq[RecipeOut], goldKcalPerServing: Map[Long, Double]): Summary = {
    val full = out.filter(r => r.nFullyMapped == r.nLines)
    val errs = full.map(r => math.abs(r.estKcalPerServing - goldKcalPerServing.getOrElse(r.recipeId, Double.NaN)))
    def buckets(pct: RecipeOut => Double) =
      out.groupBy(r => bucket(pct(r))).map { case (b, rs) => b -> round2(rs.size * 100.0 / out.size) }
    Summary(out.size.toLong, full.size.toLong,
            if (errs.isEmpty) Double.NaN else errs.sum / errs.size,
            Map("ingredient name" -> buckets(_.pctNameMapped),
                "ingredient + unit" -> buckets(_.pctFullyMapped)))
  }

  /** Figure 2's bucket label, as `Experiments.fig2` computes it. */
  def bucket(pct: Double): String =
    if (pct >= 100.0) "100"
    else { val lo = (math.floor(pct / 10) * 10).toInt; s"$lo-${lo + 10}" }

  private def round2(d: Double): Double = BigDecimal(d).setScale(2, RoundingMode.HALF_UP).toDouble

  /** EXPERIMENTS.md's SF=0.1, seed-7 figures: 11,807 recipes, 9,409 fully
    * mapped, MAE 57.84 kcal and the Figure 2 table.
    */
  val PaperSeed: Long = 7L
  val Recorded: Summary = Summary(11807L, 9409L, 57.84, Map(
    "ingredient name" -> Map("100" -> 80.16, "90-100" -> 8.38, "80-90" -> 10.71,
                             "70-80" -> 0.58, "60-70" -> 0.16, "50-60" -> 0.01),
    "ingredient + unit" -> Map("100" -> 79.69, "90-100" -> 8.61, "80-90" -> 10.93,
                               "70-80" -> 0.60, "60-70" -> 0.16, "50-60" -> 0.01)))

  /** Exact agreement with the recorded figures (MAE to 2 decimals). */
  def matchesRecorded(s: Summary): Seq[String] = Seq(
    Option.when(s.recipes != Recorded.recipes)(s"recipes ${s.recipes}, recorded ${Recorded.recipes}"),
    Option.when(s.fullyMapped != Recorded.fullyMapped)(s"fully mapped ${s.fullyMapped}, recorded ${Recorded.fullyMapped}"),
    Option.when(round2(s.maeKcal) != Recorded.maeKcal)(f"MAE ${s.maeKcal}%.4f kcal, recorded ${Recorded.maeKcal}"),
    Option.when(s.fig2 != Recorded.fig2)(s"Figure 2 buckets ${s.fig2}, recorded ${Recorded.fig2}"),
  ).flatten

  /** Any seed: the calorie error stays of the order ResultsBench accepts
    * (< 80 kcal per serving) and most recipes stay fully mapped.
    */
  def plausible(s: Summary): Seq[String] = Seq(
    Option.when(!(s.maeKcal < 80.0))(f"MAE ${s.maeKcal}%.2f kcal is not below 80"),
    Option.when(!(s.fullyMapped >= s.recipes * 0.6))(s"only ${s.fullyMapped} of ${s.recipes} recipes fully mapped"),
  ).flatten
}

/** Brute-force reference for `JaccardMatcher.matchBest`: scores every
  * (ingredient, food) pair over `TextPrep` and picks the best by the
  * documented order — score desc, raw bonus desc, best matched-term
  * priority asc, NDB id asc.
  */
object MatchOracle {

  final case class Key(ingId: Long, name: String, state: String, temp: String, df: String)
  final case class Best(ndbId: Long, score: Double)

  private final case class Food(ndbId: Long, priorities: Map[String, Int], hasRaw: Boolean)

  /** Best match of every key under J* (modified) and J (vanilla); keys that
    * share no token with any description are absent.
    */
  def best(keys: Seq[Key], foods: Seq[(Long, String)]): (Map[Long, Best], Map[Long, Best]) = {
    val prepared = foods.map { case (id, desc) =>
      Food(id, TextPrep.prepDescription(desc).map(t => t.token -> t.priority).toMap,
           TextPrep.descriptionHasRaw(desc))
    }
    val modified = Map.newBuilder[Long, Best]
    val vanilla  = Map.newBuilder[Long, Best]
    for (k <- keys) {
      val a       = TextPrep.prepIngredient(k.name, k.state, k.temp, k.df).toArray
      val noState = k.state == null || k.state.isEmpty
      // (score, rawBonus, priority, ndbId) of the best candidate so far.
      var bm = (Double.NaN, 0, 0, 0L)
      var bv = (Double.NaN, 0, 0, 0L)
      for (f <- prepared) {
        var inter = 0; var prio = Int.MaxValue; var i = 0
        while (i < a.length) {
          val p = f.priorities.getOrElse(a(i), -1)
          if (p >= 0) { inter += 1; if (p < prio) prio = p }
          i += 1
        }
        if (inter > 0) {
          val raw = if (f.hasRaw && noState) 1 else 0
          val m   = (inter.toDouble / a.length, raw, prio, f.ndbId)
          val v   = (inter.toDouble / (a.length + f.priorities.size - inter), raw, prio, f.ndbId)
          if (bm._1.isNaN || better(m, bm)) bm = m
          if (bv._1.isNaN || better(v, bv)) bv = v
        }
      }
      if (!bm._1.isNaN) {
        modified += k.ingId -> Best(bm._4, bm._1)
        vanilla  += k.ingId -> Best(bv._4, bv._1)
      }
    }
    (modified.result(), vanilla.result())
  }

  private def better(x: (Double, Int, Int, Long), y: (Double, Int, Int, Long)): Boolean =
    if (x._1 != y._1) x._1 > y._1
    else if (x._2 != y._2) x._2 > y._2
    else if (x._3 != y._3) x._3 < y._3
    else x._4 < y._4

  /** Compare one metric's matcher output (ingId → rows) with the oracle.
    * A key the oracle scored fails unless it has exactly the oracle's row, or
    * no row where the oracle maps nothing; any other key fails unless it has
    * at most one row, naming a known food with a score in (0, 1].
    */
  def check(keys: Seq[Key], out: Map[Long, Seq[Best]], oracle: Map[Long, Best], scored: Set[Long],
            foodIds: Set[Long], metric: String): Verdict = {
    val problems = Seq.newBuilder[String]
    var failed   = 0L
    for (k <- keys) {
      val got = out.getOrElse(k.ingId, Seq.empty)
      val ok  =
        if (scored.contains(k.ingId)) got == oracle.get(k.ingId).toSeq
        else got.size <= 1 && got.forall(b => foodIds.contains(b.ndbId) && b.score > 0 && b.score <= 1)
      if (!ok) {
        failed += 1
        problems += s"$metric: key ${k.ingId} (${k.name}|${k.state}) got ${got.mkString(",")}, oracle ${oracle.get(k.ingId)}"
      }
    }
    val unknown = out.keySet -- keys.map(_.ingId)
    if (unknown.nonEmpty) problems += s"$metric: output for unknown keys, e.g. ${unknown.head}"
    Verdict(failed, problems.result().take(5))
  }
}

/** Comparing and identifying results independently of row order and of
  * the summation order inside Spark aggregates, which moves the last bits of
  * a double between two plans for the same query.
  */
object Digest {
  private def render(x: Any): String = x match {
    case d: Double => if (d.isNaN || d.isInfinite) d.toString
                      else BigDecimal(d).round(new java.math.MathContext(6)).bigDecimal.stripTrailingZeros.toPlainString
    case null      => "∅"
    case v         => v.toString
  }

  /** A short hash of the rows, doubles to 6 significant digits. */
  def of(rows: Seq[Seq[Any]]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    rows.map(_.map(render).mkString("|")).sorted.foreach(r => md.update((r + "\n").getBytes("UTF-8")))
    md.digest().map("%02x".format(_)).mkString.take(16)
  }

  /** None when `a` and `b` hold the same rows: fields other than doubles
    * equal (they key the rows), doubles within 1e-9 relative. Otherwise the
    * first difference.
    */
  def difference(a: Seq[Seq[Any]], b: Seq[Seq[Any]]): Option[String] = {
    def key(r: Seq[Any]) = r.filterNot(_.isInstanceOf[Double]).map(render).mkString("|")
    val (sa, sb) = (a.sortBy(key), b.sortBy(key))
    if (sa.size != sb.size) Some(s"${sa.size} rows vs ${sb.size} rows")
    else sa.zip(sb).collectFirst { case (x, y) if !same(x, y) => s"${x.mkString("|")} vs ${y.mkString("|")}" }
  }

  private def same(x: Seq[Any], y: Seq[Any]): Boolean =
    x.size == y.size && x.zip(y).forall {
      case (d: Double, e: Double) =>
        d == e || (d.isNaN && e.isNaN) || math.abs(d - e) <= 1e-9 * math.max(math.abs(d), math.abs(e))
      case (p, q) => p == q
    }
}

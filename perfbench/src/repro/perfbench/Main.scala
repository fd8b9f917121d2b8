package repro.perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable

import org.apache.spark.{ListenerBusAccess, SparkContext}
import org.apache.spark.sql.SparkSession

/** The pipeline benchmark: one driver process, one workload, a closed loop
  * of pipeline runs (the next starts only when the previous result is fully
  * materialized on the driver).
  *
  * {{{
  * perfbench/run.sh --workload <corpus_sf0.1|match_vocab> --seed <n> --seconds <s> --trace <0|1>
  * perfbench/run.sh --selftest
  * }}}
  *
  * `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
  * metrics of a separate traced run. The last line of standard output is a
  * JSON object {correct, attempted, failed, metrics}; the exit code is 1
  * when any output gate failed.
  */
object Main {

  /** Set-ups per untraced process; `setup_s` is their median. */
  val SetupRepeats = 3

  /** Untimed runs before the first timed one. A second one did not narrow
    * the spread across processes reliably on a shared 4-core machine, where
    * the machine's drift over minutes dominates it, and costs ~11 s per
    * corpus process.
    */
  val WarmupRuns = 1

  private val BuildDir = new File(".bench_build")

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  final case class Metric(value: Double, unit: String)

  final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[(String, Metric)]) {
    def json: String = {
      val ms = metrics.map { case (n, m) => s""""$n": {"value": ${num(m.value)}, "unit": "${m.unit}"}""" }
      s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
    }
  }

  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString

  def main(argv: Array[String]): Unit = {
    if (argv.sameElements(Array("--selftest"))) sys.exit(SelfTest.run())
    val args = parse(argv.toList, Map.empty) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
          "--seed <n> --seconds <s> --trace <0|1>")
        sys.exit(2)
    }
    val result = if (args.trace) traced(args) else untraced(args)
    println(result.json)
    Console.out.flush()
    sys.exit(if (result.correct) 0 else 1)
  }

  private def parse(rest: List[String], acc: Map[String, String]): Either[String, Args] = rest match {
    case flag :: value :: tail if flag.startsWith("--") => parse(tail, acc + (flag.drop(2) -> value))
    case Nil =>
      for {
        name <- acc.get("workload").toRight("--workload is required")
        wl   <- Workloads.byName(name).toRight(s"unknown workload '$name'")
        seed <- acc.get("seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
        secs <- acc.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight("--seconds must be a positive integer")
        tr   <- acc.get("trace").collect { case "0" => false; case "1" => true }.toRight("--trace must be 0 or 1")
      } yield Args(wl, seed, secs, tr)
    case other => Left(s"unexpected arguments: ${other.mkString(" ")}")
  }

  /** The session every job of the repository uses (`Jobs.session`): local
    * mode on all cores, 64 shuffle partitions, broadcast joins off; scratch
    * files stay inside the build directory.
    */
  private def session(): SparkSession =
    SparkSession.builder
      .master("local[*]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(BuildDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(BuildDir, "warehouse").getAbsolutePath)
      .getOrCreate()

  /** Spark storage (memory + disk) held by persisted RDDs, in MB. */
  private def storageMb(sc: SparkContext): Double = {
    ListenerBusAccess.drain(sc)
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
  }

  /** Drop every cache and persisted RDD except the prepared inputs, so each
    * run starts from the same state and nothing a run leaves behind can
    * serve the next one.
    */
  private def clearExcept(spark: SparkSession, keep: collection.Set[Int]): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.foreach { case (id, rdd) =>
      if (!keep.contains(id)) rdd.unpersist(blocking = true)
    }
  }

  /** Runs `body` and checks its output; returns the output, the verdict and
    * the seconds `body` took (the check is not timed). A throw counts as a
    * run whose items all failed.
    */
  private def attempt(p: Prepared)(body: => Output): (Option[Output], Verdict, Double) = {
    val t0 = System.nanoTime()
    def secs = (System.nanoTime() - t0) / 1e9
    try {
      val out = body
      val s   = secs
      (Some(out), p.check(out), s)
    } catch {
      case e: Exception => (None, Verdict(p.items, Seq(s"run failed: $e")), secs)
    }
  }

  private def report(label: String, values: Seq[Double], unit: String): Unit = {
    val q = Stats.quartiles(values)
    println(f"$label%-22s median ${q._2}%.4f $unit (n=${values.size}, " +
      f"q1 ${q._1}%.4f, q3 ${q._3}%.4f, min ${values.min}%.4f, max ${values.max}%.4f)")
  }

  private def reportProblems(problems: Seq[String]): Unit =
    problems.distinct.take(10).foreach(p => println(s"GATE FAILED: $p"))

  // ---------------------------------------------------------------------
  // Untraced: end-to-end metrics
  // ---------------------------------------------------------------------

  /** `SetupRepeats` set-ups, each in a fresh session, then `WarmupRuns`
    * untimed runs, then timed runs until `seconds` have passed (at least
    * one). `setup_s` is the median set-up plus the warm-up runs.
    */
  private def untraced(args: Args): Result = {
    var spark: SparkSession = null
    var prepared: Prepared  = null
    val setups = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark    = session()
      prepared = args.workload.prepare(spark, args.seed)
      (System.nanoTime() - t0) / 1e9
    }
    spark.catalog.clearCache()
    val keep = spark.sparkContext.getPersistentRDDs.keySet
    prepared.prepareGates()
    val warm   = (1 to WarmupRuns).map(_ => attempt(prepared)(prepared.run()))
    val warmS  = warm.map(_._3).sum
    val setupS = Stats.median(setups) + warmS

    val walls, held = mutable.ArrayBuffer.empty[Double]
    val problems    = mutable.ArrayBuffer.empty[String] ++= warm.flatMap(_._2.problems)
    var failed      = 0L
    val loopStart   = System.nanoTime()
    while (walls.isEmpty || (System.nanoTime() - loopStart) / 1e9 < args.seconds) {
      clearExcept(spark, keep)
      val (_, verdict, wall) = attempt(prepared)(prepared.run())
      walls += wall
      held += storageMb(spark.sparkContext)
      failed += verdict.failedItems
      problems ++= verdict.problems
    }
    spark.stop()

    val wallS = Stats.median(walls.toSeq)
    println(s"workload ${args.workload.name} seed ${args.seed}: ${prepared.items} items per run, " +
      s"${walls.size} timed runs")
    report("wall_s", walls.toSeq, "s")
    println(s"  each run: ${walls.map(w => f"$w%.3f").mkString(", ")} s")
    report("setup_s (each set-up)", setups, "s")
    println(f"setup_s                median set-up + warm-up runs " +
      f"(${warm.map(w => f"${w._3}%.3f").mkString(" + ")}) s = $setupS%.4f s")
    report("held_cache_mb", held.toSeq, "MB")
    prepared.setupSeconds.toSeq.sorted.foreach { case (k, v) => println(f"  last set-up $k%-14s $v%.4f s") }
    reportProblems(problems.toSeq)

    Result(
      correct   = problems.isEmpty,
      attempted = prepared.items * walls.size,
      failed    = failed,
      metrics   = Seq(
        "wall_s"        -> Metric(wallS, "s"),
        "items_per_s"   -> Metric(prepared.items / wallS, "1/s"),
        "setup_s"       -> Metric(setupS, "s"),
        "held_cache_mb" -> Metric(Stats.median(held.toSeq), "MB"),
      ))
  }

  // ---------------------------------------------------------------------
  // Traced: per-layer metrics
  // ---------------------------------------------------------------------

  /** Every layer a workload can run; layers a workload does not run report 0. */
  val Layers: Seq[String] = Seq("ner_tag", "match", "units", "agg")

  val LayerCountUnits: Seq[(String, String)] = Seq(
    "ner_tag.lines" -> "count", "ner_tag.lines_per_distinct_phrase" -> "lines/phrase",
    "match.keys" -> "count", "match.candidate_pairs" -> "count", "match.pairs_per_key" -> "pairs/key",
    "match.mapped_frac" -> "frac",
    "units.lines" -> "count", "units.resolved_frac" -> "frac", "units.fallback_lines" -> "count",
    "agg.recipes" -> "count",
  )

  private def traced(args: Args): Result = {
    val spark    = session()
    val tracer   = new Tracer(spark.sparkContext)
    val prepared = args.workload.prepare(spark, args.seed)
    prepared.prepareGates()
    val warm = (1 to WarmupRuns).map(_ => attempt(prepared)(prepared.run())._2)
    spark.catalog.clearCache()
    val keep = spark.sparkContext.getPersistentRDDs.keySet

    // Untraced reference run, then the staged run with spans.
    val before = storageMb(spark.sparkContext)
    val (plainOut, plainV, plainS) = attempt(prepared)(prepared.run())
    val retainedMb = storageMb(spark.sparkContext) - before
    clearExcept(spark, keep)

    val runId = s"${args.workload.name}-${args.seed}"
    val (stagedOut, stagedV, _) =
      attempt(prepared)(tracer.span("run", "", runId)(prepared.staged(tracer, runId)))
    val parity = (plainOut, stagedOut) match {
      case (Some(a), Some(b)) =>
        Digest.difference(a.rows.map(_.toSeq), b.rows.map(_.toSeq))
          .map(d => s"staged result differs from the untraced one: $d").toSeq
      case _ => Seq("no staged/untraced comparison: a run failed")
    }
    val counts = if (stagedOut.isDefined) prepared.layerCounts() else Map.empty[String, Double]
    clearExcept(spark, keep)

    val spans    = tracer.spans
    val root     = spans.find(_.name == "run").map(_.seconds).getOrElse(Double.NaN)
    val layerS   = Layers.map(l => l -> spans.filter(s => s.name == l && s.parent == "run").map(_.seconds).sum)
    val counters = Layers.map(l => l -> tracer.countersOf(l))
    spark.stop()

    val traceDir = new File(BuildDir, "trace")
    traceDir.mkdirs()
    val traceFile = new File(traceDir, s"$runId.jsonl")
    Files.write(traceFile.toPath, tracer.toJsonLines.getBytes(StandardCharsets.UTF_8))

    val problems = warm.flatMap(_.problems) ++ plainV.problems ++ stagedV.problems ++ parity
    println(s"workload ${args.workload.name} seed ${args.seed}: ${prepared.items} items; " +
      s"digest ${plainOut.map(_.digest).getOrElse("-")}; spans in $traceFile")
    println(f"untraced run ${plainS}%.4f s, traced run $root%.4f s")
    layerS.foreach { case (l, s) =>
      val c = counters.toMap.apply(l)
      println(f"  $l%-8s $s%8.4f s  stages ${c.stages}%4d  tasks ${c.tasks}%5d  shuffle ${c.shuffleBytes / 1e6}%.3f MB")
    }
    counts.toSeq.sorted.foreach { case (k, v) => println(f"  $k%-36s $v%.4f") }
    reportProblems(problems)

    val metrics =
      Seq("ner_train.s" -> Metric(prepared.setupSeconds.getOrElse("ner_train.s", 0.0), "s"),
          "data.gen_s"  -> Metric(prepared.setupSeconds("data.gen_s"), "s")) ++
      layerS.map { case (l, s) => s"$l.s" -> Metric(s, "s") } ++
      LayerCountUnits.map { case (k, u) => k -> Metric(counts.getOrElse(k, 0.0), u) } ++
      counters.flatMap { case (l, c) => Seq(
        s"$l.stages"     -> Metric(c.stages.toDouble, "count"),
        s"$l.tasks"      -> Metric(c.tasks.toDouble, "count"),
        s"$l.shuffle_mb" -> Metric(c.shuffleBytes / 1e6, "MB")) } ++
      Seq("trace.overhead_s"   -> Metric(root - plainS, "s"),
          "trace.remainder_s"  -> Metric(root - layerS.map(_._2).sum, "s"),
          "retained_cache_mb"  -> Metric(retainedMb, "MB"))

    Result(
      correct   = problems.isEmpty,
      attempted = prepared.items * 2,
      failed    = plainV.failedItems + stagedV.failedItems + (if (parity.nonEmpty) prepared.items else 0L),
      metrics   = metrics)
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** (q1, median, q3) by linear interpolation; a single value is all three. */
  def quartiles(xs: Seq[Double]): (Double, Double, Double) = {
    val s = xs.sorted
    def at(p: Double): Double = {
      val pos = p * (s.size - 1)
      val lo  = pos.toInt
      if (lo + 1 < s.size) s(lo) + (pos - lo) * (s(lo + 1) - s(lo)) else s(lo)
    }
    (at(0.25), at(0.5), at(0.75))
  }
}

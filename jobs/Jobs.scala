package repro.jobs

/** Shared argument parsing for the spark-submit entrypoints. */
object Jobs {
  /** First CLI arg as scale factor, defaulting to 0.1 (bench scale). */
  def sfArg(args: Array[String], default: Double = 0.1): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}

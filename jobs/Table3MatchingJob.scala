package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Table III: food descriptions inferred with the modified
  * vs the vanilla Jaccard index, side by side with the paper's rows.
  */
object Table3MatchingJob {
  def main(args: Array[String]): Unit = {
    val spark = Experiments.session("table3-matching")
    println("TABLE III — MODIFIED vs VANILLA JACCARD MATCHES")
    println(Experiments.render(Experiments.table3(spark)))
    spark.stop()
  }
}

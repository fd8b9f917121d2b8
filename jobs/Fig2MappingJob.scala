package repro.jobs

import repro.exp.Experiments

/** Reproduces paper Figure 2 (as a table): percentage mapping of recipes to
  * their nutritional profile. Usage: Fig2MappingJob [sf]
  */
object Fig2MappingJob {
  def main(args: Array[String]): Unit = {
    val spark = Experiments.session("fig2-mapping")
    val sf    = Jobs.sfArg(args)
    val (model, _, _) = Experiments.trainNer(spark)
    val perRecipe = Experiments.estimateCorpus(spark, sf, model)
    println(s"FIGURE 2 — PERCENTAGE MAPPING OF RECIPES (SF=$sf)")
    println(Experiments.render(Experiments.fig2(spark, perRecipe), n = 50))
    spark.stop()
  }
}

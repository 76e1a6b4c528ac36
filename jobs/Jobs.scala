package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.benchrun.Experiments

/** Shared SparkSession factory for the spark-submit entrypoints. The
  * QueryER extensions are installed so `SELECT DEDUP …` works via
  * `spark.sql` inside every job.
  */
object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"queryer-$name")
      .config("spark.sql.extensions", "repro.sql.QueryErExtensions")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** `ExperimentJob <name>`: reproduces one paper table or figure (`table5`
  * … `fig13`, see [[Experiments.byName]]) into `bench_results/<name>.txt`.
  * `ExperimentJob demo` registers the motivating example and runs the
  * paper's §2 query through `SELECT DEDUP` SQL.
  */
object ExperimentJob {
  def main(args: Array[String]): Unit = {
    val names = Experiments.byName.keys.toSeq :+ "demo"
    val name = args.headOption.filter(names.contains).getOrElse(
      sys.error(s"usage: ExperimentJob <${names.mkString("|")}>"))
    val spark = JobSession.get(name)
    if (name == "demo") demo(spark) else Experiments.run(spark, name)
    spark.stop()
  }

  private def demo(spark: SparkSession): Unit = {
    repro.sql.QueryEr.register(spark, "p", repro.data.MotivatingExample.publications(spark))
    repro.sql.QueryEr.register(spark, "v", repro.data.MotivatingExample.venues(spark))
    val out = spark.sql(
      "SELECT DEDUP p.title, p.year, v.rank FROM p INNER JOIN v ON p.venue = v.title WHERE p.venue = 'EDBT'")
    out.show(truncate = false)
  }
}

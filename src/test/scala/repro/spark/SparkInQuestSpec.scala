package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, raise_error}
import repro.SparkSpec
import repro.core._
import repro.data.StreamGen
import repro.testkit.SparkJobs

/** The Spark micro-batch engine must match the record-at-a-time local
  * engine bit-for-bit (same hash-based sampling, same quantile
  * definition, same summation order) — DESIGN.md §6.
  */
class SparkInQuestSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("sq", 6000, 0.5, 0.9, seed = 81)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 1200, budgetPerSegment = 60)

  private def bits(xs: Seq[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits)

  /** Per-segment and final estimates equal by raw bits, and the same oracle calls. */
  private def assertSameRun(sparkR: RunResult, local: RunResult, what: String = ""): Unit = {
    assert(bits(sparkR.perSegment.toSeq) == bits(local.perSegment.toSeq),
      s"$what segment estimates ${sparkR.perSegment.mkString(",")} vs ${local.perSegment.mkString(",")}")
    assert(bits(Seq(sparkR.finalEstimate)) == bits(Seq(local.finalEstimate)),
      s"$what final estimate ${sparkR.finalEstimate} vs ${local.finalEstimate}")
    assert(sparkR.oracleCalls == local.oracleCalls)
  }

  test("Spark engine equals the local engine exactly (predicate query)") {
    val seed = 5L
    val local = new InQuest().runTraced(ds, query, seed)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed)
    assert(sparkR.perSegment.length == local.result.perSegment.length)
    assertSameRun(sparkR, local.result)
  }

  test("Spark engine equals the local engine exactly (no predicate)") {
    val q = query.copy(usePredicate = false)
    val local = new InQuest().run(ds, q, 9)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), q, 9)
    assertSameRun(sparkR, local)
  }

  test("equivalence holds across trial seeds") {
    Seq(1L, 2L, 3L).foreach { seed =>
      val local = new InQuest().run(ds, query, seed)
      val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed)
      assertSameRun(sparkR, local, s"seed $seed:")
    }
  }

  test("equivalence is partitioning-invariant (shuffle path exercised)") {
    val seed = 4L
    val local = new InQuest().run(ds, query, seed)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds, partitions = 13), query, seed)
    assertSameRun(sparkR, local)
  }

  test("a non-integer statistic gives bit-identical estimates at any partitioning") {
    val text = StreamGen.textLike("tx", 6000, 0.56, 0.79, baseDwell = 300, seed = 83)
    val local1 = new InQuest().run(text, query, 1)
    assert(local1.perSegment.forall(_ != 0.0), "every segment must hold matching records")
    for (seed <- 1L to 6L; partitions <- Seq(0, 13)) {
      val local = new InQuest().run(text, query, seed)
      val sparkR = SparkInQuest.run(SparkData.toDF(spark, text, partitions), query, seed)
      assertSameRun(sparkR, local, s"seed $seed, $partitions partitions:")
    }
  }

  test("per-segment oracle budget is enforced in the Spark engine") {
    val r = SparkInQuest.run(SparkData.toDF(spark, ds), query, 6)
    assert(r.oracleCalls <= 5L * query.budgetPerSegment)
  }

  test("non-default hyperparameters stay equivalent") {
    val params = InQuestParams(k = 4, alpha = 0.5, defensiveFraction = 0.2)
    val seed = 7L
    val local = new InQuest(params).run(ds, query, seed)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed, params)
    assertSameRun(sparkR, local)
  }

  test("a gap in idx is an empty segment: earlier segments unchanged, budget kept") {
    val seed = 5L
    val l = query.segmentLength.toLong
    val full = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed)
    val gapDf = SparkData.toDF(spark, ds).filter(col("idx") < 2 * l || col("idx") >= 3 * l)
    val r = SparkInQuest.run(gapDf, query, seed)
    def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToRawLongBits)
    assert(r.perSegment.length == full.perSegment.length)
    assert(bits(r.perSegment.take(2).toSeq) == bits(full.perSegment.take(2).toSeq))
    assert(r.perSegment(2) == 0.0)
    assert(r.oracleCalls <= full.perSegment.length.toLong * query.budgetPerSegment)
  }

  test("an empty stream gives an empty result") {
    val r = SparkInQuest.run(SparkData.toDF(spark, ds).filter(lit(false)), query, 1)
    assert(r.perSegment.isEmpty && r.oracleCalls == 0)
  }

  test("a T-segment run costs at most 1 + T Spark jobs") {
    val df = SparkData.toDF(spark, ds, partitions = 4).cache()
    try {
      df.count()
      val windows = ds.segments(query.segmentLength).length
      val (r, jobs) = SparkJobs.count(spark.sparkContext)(SparkInQuest.run(df, query, 5))
      assert(r.perSegment.length == windows)
      assert(jobs <= 1 + windows, s"$jobs Spark jobs for $windows segments")
    } finally df.unpersist()
  }

  /** The stream with its oracle columns replaced by an error raised
    * whenever a row's `statistic` is read.
    */
  private def oracleTripwire(df: DataFrame): DataFrame =
    df.withColumn("statistic", raise_error(lit("oracle column read")).cast("double"))

  test("a duplicate idx fails the run before any oracle column is read") {
    val df = SparkData.toDF(spark, ds)
    val dup = oracleTripwire(df.union(df.filter(col("idx") === 1500L)))
    val e = intercept[IllegalArgumentException](SparkInQuest.run(dup, query, 5))
    assert(e.getMessage.contains("idx 1500 "), e.getMessage)
  }

  test("the oracle pass must read exactly one row per drawn idx") {
    val df = SparkData.toDF(spark, ds)
    val (idx, proxy) = SparkSegmentPlane.proxyColumns(df.filter(col("idx") < query.segmentLength))
    def pilotDraw(records: DataFrame): Seq[Seq[StratumStats]] =
      SparkSegmentPlane(idx, proxy, 0, idx.length, records, 5, usePredicate = true)
        .sample(Array.empty, Array(query.budgetPerSegment), InQuest.SampleTag, Seq(Array.empty))
    val Seq(Seq(cell)) = pilotDraw(df)
    assert(cell.nSampled == query.budgetPerSegment)
    intercept[IllegalStateException](pilotDraw(df.union(df)))
    intercept[IllegalStateException](pilotDraw(df.filter(col("idx") >= query.segmentLength)))
  }
}

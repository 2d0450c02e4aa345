package repro.spark

import org.apache.spark.sql.functions.{col, lit}
import repro.SparkSpec
import repro.core._
import repro.data.StreamGen

/** The Catalyst micro-batch engine must match the record-at-a-time local
  * engine bit-for-bit (same hash-based sampling, same quantile
  * definition) — DESIGN.md §6.
  */
class SparkInQuestSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("sq", 6000, 0.5, 0.9, seed = 81)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 1200, budgetPerSegment = 60)

  test("Spark engine equals the local engine exactly (predicate query)") {
    val seed = 5L
    val local = new InQuest().runTraced(ds, query, seed)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed)
    assert(sparkR.perSegment.length == local.result.perSegment.length)
    sparkR.perSegment.zip(local.result.perSegment).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-9, s"segment estimate mismatch: $s vs $l")
    }
    assert(math.abs(sparkR.finalEstimate - local.result.finalEstimate) < 1e-9)
    assert(sparkR.oracleCalls == local.result.oracleCalls)
  }

  test("Spark engine equals the local engine exactly (no predicate)") {
    val q = query.copy(usePredicate = false)
    val local = new InQuest().run(ds, q, 9)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), q, 9)
    sparkR.perSegment.zip(local.perSegment).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-9)
    }
  }

  test("equivalence holds across trial seeds") {
    Seq(1L, 2L, 3L).foreach { seed =>
      val local = new InQuest().run(ds, query, seed)
      val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds), query, seed)
      assert(math.abs(sparkR.finalEstimate - local.finalEstimate) < 1e-9,
        s"seed $seed: ${sparkR.finalEstimate} vs ${local.finalEstimate}")
    }
  }

  test("equivalence is partitioning-invariant (shuffle path exercised)") {
    val seed = 4L
    val local = new InQuest().run(ds, query, seed)
    val sparkR = SparkInQuest.run(SparkData.toDF(spark, ds, partitions = 13), query, seed)
    sparkR.perSegment.zip(local.perSegment).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-9)
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
    sparkR.perSegment.zip(local.perSegment).foreach { case (s, l) =>
      assert(math.abs(s - l) < 1e-9)
    }
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
}

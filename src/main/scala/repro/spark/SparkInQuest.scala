package repro.spark

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core._
import repro.util.Rng

/** The InQuest data plane as Catalyst operators (DESIGN.md §2), over one
  * cached tumbling window. Everything heavy runs as DataFrame operations:
  *
  *   - proxy-quantile boundaries: the exact `percentile` aggregate (same
  *     linear-interpolation definition as `Stats.quantileBoundaries`);
  *   - stratum assignment: a `when`-chain on the proxy column;
  *   - reservoir draw: `row_number` over (hash-uniform, idx) per stratum
  *     — bit-identical to `Reservoir.bottomN` because both hash
  *     `(seed, idx, tag)` with the same splitmix64 mixer;
  *   - oracle invocation: `statistic`/`predicate` are only read on rows
  *     that survive the sampling filter;
  *   - cell statistics: one `groupBy(stratum)` aggregation per fold.
  */
private final class SparkSegmentPlane(df: DataFrame, trialSeed: Long, usePredicate: Boolean)
    extends SegmentPlane {

  /** Spark-side uniform hash, identical to [[Rng.uniform]]. The closure
    * captures only local primitives — capturing `this` would drag the
    * plane and its DataFrame into task serialization.
    */
  private def uniformCol(tag: Long): Column = {
    val seed = trialSeed
    val u = udf((idx: Long) => Rng.uniform(seed, idx, tag))
    u(col("idx"))
  }

  private def stratumCol(boundaries: Array[Double]): Column =
    boundaries.zipWithIndex.foldRight(lit(boundaries.length): Column) {
      case ((b, k), rest) => when(col("proxy") < b, lit(k)).otherwise(rest)
    }

  /** SQL `percentile` is the *exact* aggregate with the same
    * linear-interpolation definition as Stats.quantileBoundaries; it is
    * null on an empty window. K = 1 needs no boundaries and no job.
    */
  def quantiles(k: Int): Option[Array[Double]] =
    if (k == 1) Some(Array.empty)
    else {
      val qs = (1 until k).map(_.toDouble / k).mkString("array(", ",", ")")
      val r = df.selectExpr(s"percentile(proxy, $qs) as q").head()
      Option.unless(r.isNullAt(0))(r.getSeq[Double](0).toArray)
    }

  def sizes(boundaries: Array[Double]): Array[Long] = {
    val byStratum = df
      .withColumn("stratum", stratumCol(boundaries))
      .groupBy(col("stratum")).count()
      .collect().map(r => r.getInt(0) -> r.getLong(1)).toMap
    Array.tabulate(boundaries.length + 1)(s => byStratum.getOrElse(s, 0L))
  }

  def sample(drawBoundaries: Array[Double], counts: Array[Int], tag: Long,
             foldBy: Seq[Array[Double]]): Seq[Seq[StratumStats]] = {
    val countCol = counts.zipWithIndex.foldRight(lit(0): Column) {
      case ((c, s), rest) => when(col("stratum") === s, lit(c)).otherwise(rest)
    }
    val order =
      if (drawBoundaries.isEmpty) Window.orderBy(col("u"), col("idx"))
      else Window.partitionBy(col("stratum")).orderBy(col("u"), col("idx"))
    val flagged = df
      .withColumn("stratum", stratumCol(drawBoundaries))
      .withColumn("u", uniformCol(tag))
      .withColumn("sampled", row_number().over(order) <= countCol)
    foldBy.map(cellStats(flagged, _))
  }

  /** Aggregate the sampled rows (with observed statistic/predicate) plus
    * the per-stratum population counts into [[StratumStats]] cells.
    */
  private def cellStats(flagged: DataFrame, boundaries: Array[Double]): Seq[StratumStats] = {
    val sampled = col("sampled")
    val matching = sampled && (if (usePredicate) col("predicate") else lit(true))
    val agg = flagged
      .withColumn("stratum", stratumCol(boundaries))
      .groupBy(col("stratum"))
      .agg(
        count(lit(1)) as "sizeD",
        count(when(sampled, 1)) as "nSampled",
        count(when(matching, 1)) as "nPos",
        coalesce(sum(when(matching, col("statistic"))), lit(0.0)) as "sumF",
        coalesce(sum(when(matching, col("statistic") * col("statistic"))), lit(0.0)) as "sumSqF",
      )
      .collect()
      .map(r => r.getInt(0) ->
        StratumStats(r.getLong(1), r.getLong(2).toInt, r.getLong(3).toInt,
          r.getDouble(4), r.getDouble(5)))
      .toMap
    (0 to boundaries.length).map(s => agg.getOrElse(s, StratumStats(0, 0, 0, 0.0, 0.0)))
  }
}

/** The Catalyst engine: an [[InQuestController]] fed one
  * [[SparkSegmentPlane]] per tumbling segment (micro-batch). Equivalence
  * with the record-at-a-time [[repro.core.InQuest]] engine is asserted
  * exactly in `SparkInQuestSpec`.
  */
final class SparkInQuestProcessor(
    params: InQuestParams,
    query: QueryConfig,
    trialSeed: Long,
) {
  private val controller = new InQuestController(params, query)

  /** Process the next segment; `segDf` must hold exactly that tumbling
    * window's records (possibly none). Returns the segment's cells.
    */
  def processSegment(segDf: DataFrame): Seq[StratumStats] = {
    val df = segDf.cache()
    try controller.step(new SparkSegmentPlane(df, trialSeed, query.usePredicate))
    finally df.unpersist()
  }

  def result: RunResult = controller.result
}

/** Batch driver: split a full stream DataFrame into its tumbling segments
  * and run the processor over each (the Structured Streaming driver in
  * [[StreamingInQuest]] feeds the same processor from `foreachBatch`).
  * Windows up to the largest `idx` are processed, including empty ones
  * left by gaps in `idx`; an empty DataFrame gives an empty result.
  */
object SparkInQuest {
  def run(
      df: DataFrame,
      query: QueryConfig,
      trialSeed: Long,
      params: InQuestParams = InQuestParams(),
  ): RunResult = {
    val proc = new SparkInQuestProcessor(params, query, trialSeed)
    val last = df.agg(max(col("idx"))).head()
    val windows = if (last.isNullAt(0)) 0L else last.getLong(0) / query.segmentLength + 1
    for (t <- 0L until windows) {
      val start = t * query.segmentLength
      proc.processSegment(df.filter(col("idx") >= start && col("idx") < start + query.segmentLength))
    }
    proc.result
  }
}

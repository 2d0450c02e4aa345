package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._

/** The InQuest data plane over Spark, in two passes per window (DESIGN.md
  * §2). Pass 1 (`proxyColumns`) brings the window's `idx` and `proxy`
  * columns to the driver, sorted by idx; there a [[ProxyWindowPlane]]
  * answers the quantiles, the stratum sizes and the per-stratum bottom-n
  * draw with the same code as the local engine. Pass 2 (`observe`) is one
  * Spark job that reads `statistic` and `predicate` for the drawn rows
  * only: a filter on the drawn idx set within the window's idx range, so
  * that a cached DataFrame's batch statistics skip the other windows.
  */
private[spark] object SparkSegmentPlane {
  /** The window at positions `from until until` of `idx`/`proxy` (from
    * `proxyColumns`); `records` holds at least the window's records.
    */
  def apply(idx: Array[Long], proxy: Array[Double], from: Int, until: Int,
            records: DataFrame, trialSeed: Long, usePredicate: Boolean): ProxyWindowPlane =
    new ProxyWindowPlane(proxy, from, until, trialSeed)(
      idx(_),
      i => proxy(java.util.Arrays.binarySearch(idx, from, until, i)),
      drawn => if (drawn.isEmpty) Array.empty else observe(records, idx(from), idx(until - 1), drawn, usePredicate))

  /** Pass 2 over the window's idx range `lo..hi`. Throws
    * IllegalStateException unless it reads exactly one row per drawn idx.
    */
  private def observe(records: DataFrame, lo: Long, hi: Long, drawn: Array[Long],
                      usePredicate: Boolean): Array[(Double, Boolean)] = {
    val rows = records
      .where(col("idx").between(lo, hi) && col("idx").isInCollection(drawn))
      .select(col("idx"), col("statistic"), col("predicate"))
      .collect()
    val byIdx = rows.iterator
      .map(r => r.getLong(0) -> (r.getDouble(1), !usePredicate || r.getBoolean(2)))
      .toMap
    val missing = drawn.filterNot(byIdx.contains)
    if (rows.length != drawn.length || missing.nonEmpty)
      throw new IllegalStateException(s"the oracle pass read ${rows.length} rows for ${drawn.length} " +
        s"drawn records (missing idx: ${missing.mkString(",")})")
    drawn.map(byIdx)
  }

  /** Pass 1: the `idx` and `proxy` columns of `df` as primitive arrays
    * sorted by idx, from one Spark job. Throws IllegalArgumentException
    * naming an idx that occurs twice.
    */
  def proxyColumns(df: DataFrame): (Array[Long], Array[Double]) = {
    val parts = df.select(col("idx"), col("proxy"))
      .queryExecution.toRdd
      .mapPartitions { rows =>
        val idx = Array.newBuilder[Long]
        val proxy = Array.newBuilder[Double]
        rows.foreach { r => idx += r.getLong(0); proxy += r.getDouble(1) }
        Iterator((idx.result(), proxy.result()))
      }
      .collect()
    val idx = parts.flatMap(_._1)
    val proxy = parts.flatMap(_._2)
    val sorted = idx.clone()
    java.util.Arrays.sort(sorted)
    for (j <- 1 until sorted.length)
      require(sorted(j) != sorted(j - 1), s"idx ${sorted(j)} occurs more than once")
    val sortedProxy = new Array[Double](proxy.length)
    for (j <- idx.indices) sortedProxy(java.util.Arrays.binarySearch(sorted, idx(j))) = proxy(j)
    (sorted, sortedProxy)
  }
}

/** Batch driver: runs an [[InQuestController]] over a stream DataFrame's
  * tumbling windows, one [[SparkSegmentPlane]] per window. One Spark job
  * collects every window's `idx` and `proxy` columns, and each window then
  * costs one job, its oracle pass: 1 + T jobs for T windows. Cache `df`,
  * or each oracle pass recomputes it. The driver holds 16 bytes per record.
  *
  * Windows up to the largest `idx` are processed, including empty ones
  * left by gaps in `idx`; records with a negative `idx` belong to no
  * window, and an empty DataFrame gives an empty result. A duplicate `idx`
  * fails the run before any oracle column is read. Equivalence with the
  * record-at-a-time [[repro.core.InQuest]] engine is asserted bit for bit
  * in `SparkInQuestSpec`.
  */
object SparkInQuest {
  def run(
      df: DataFrame,
      query: QueryConfig,
      trialSeed: Long,
      params: InQuestParams = InQuestParams(),
  ): RunResult = {
    val controller = new InQuestController(params, query)
    val (idx, proxy) = SparkSegmentPlane.proxyColumns(df)
    def firstAtLeast(i: Long): Int = {
      val p = java.util.Arrays.binarySearch(idx, i)
      if (p >= 0) p else -p - 1
    }
    val l = query.segmentLength.toLong
    val windows = if (idx.isEmpty || idx.last < 0) 0L else idx.last / l + 1
    var from = firstAtLeast(0L)
    for (t <- 0L until windows) {
      val until = firstAtLeast((t + 1) * l)
      controller.step(SparkSegmentPlane(idx, proxy, from, until, df, trialSeed, query.usePredicate))
      from = until
    }
    controller.result
  }
}

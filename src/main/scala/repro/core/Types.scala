package repro.core

/** Aggregation functions supported by InQuest queries (paper §2.1). */
sealed trait AggFunc
object AggFunc {
  /** Mean of the statistic over predicate-matching records. */
  case object Avg extends AggFunc
  /** Sum of the statistic over predicate-matching records. */
  case object Sum extends AggFunc
  /** Number of predicate-matching records. */
  case object Count extends AggFunc
}

/** An unstructured stream materialized as parallel primitive arrays.
  *
  * `proxy` is the cheap model's score (computed for every record in an
  * online fashion, paper §2.1); `statistic` is f(x) and `predicate` is
  * O(x), both of which the algorithms may only observe through an
  * [[OracleModel]]. Ground-truth helpers on this class are reserved for
  * the evaluation harness.
  */
final case class StreamDataset(
    name: String,
    proxy: Array[Double],
    statistic: Array[Double],
    predicate: Array[Boolean],
) {
  require(proxy.length == statistic.length && proxy.length == predicate.length,
    s"parallel arrays must agree: ${proxy.length}/${statistic.length}/${predicate.length}")
  require(proxy.nonEmpty, "empty stream")

  val length: Int = proxy.length

  /** Tumbling-window segments as index ranges (last may be short). */
  def segments(segmentLength: Int): IndexedSeq[Range] = {
    require(segmentLength > 0, s"segment length must be > 0, got $segmentLength")
    (0 until length by segmentLength).map(s => s until math.min(s + segmentLength, length))
  }

  /** Exact per-segment query answer μ_t (evaluation harness only). */
  def truthPerSegment(segmentLength: Int, usePredicate: Boolean, agg: AggFunc = AggFunc.Avg): Array[Double] =
    segments(segmentLength).map(aggregate(_, usePredicate, agg)).toArray

  /** Exact full-query answer μ (evaluation harness only). */
  def truthOverall(usePredicate: Boolean, agg: AggFunc = AggFunc.Avg): Double =
    aggregate(0 until length, usePredicate, agg)

  /** The query answer over `records`, summed in index order. Like
    * `Seq.sum` on a non-empty sequence, the sum starts from the first
    * matching statistic, not from 0.0 (which would turn a leading -0.0
    * into 0.0).
    */
  private def aggregate(records: Range, usePredicate: Boolean, agg: AggFunc): Double = {
    var n = 0
    var sum = 0.0
    var i = records.start
    while (i < records.end) {
      if (!usePredicate || predicate(i)) {
        sum = if (n == 0) statistic(i) else sum + statistic(i)
        n += 1
      }
      i += 1
    }
    agg match {
      case AggFunc.Avg   => if (n == 0) 0.0 else sum / n
      case AggFunc.Sum   => sum
      case AggFunc.Count => n.toDouble
    }
  }
}

/** A streaming aggregation query (compiled form of the Figure 2 syntax). */
final case class QueryConfig(
    agg: AggFunc = AggFunc.Avg,
    usePredicate: Boolean = false,
    segmentLength: Int = 100_000,
    budgetPerSegment: Int = 500,
) {
  require(segmentLength > 0, "segment length must be positive")
  require(budgetPerSegment > 0, "oracle budget must be positive")
}

/** Sufficient statistics of one segment × stratum cell.
  *
  * `sizeD` is |D_tk| (known exactly — the proxy is computed on every
  * record); `nSampled`/`nPos` and the sums come from oracle samples only.
  */
final case class StratumStats(
    sizeD: Long,
    nSampled: Int,
    nPos: Int,
    sumF: Double,
    sumSqF: Double,
) {
  /** p̂_tk = |X⁺|/|X|, 0 when nothing was sampled. */
  def pHat: Double = if (nSampled == 0) 0.0 else nPos.toDouble / nSampled
  /** μ̂_tk, 0 when no positive samples (Algorithm 2 guard). */
  def muHat: Double = if (nPos == 0) 0.0 else sumF / nPos
  /** Unbiased σ̂²_tk, 0 with fewer than two positives (Algorithm 2 guard). */
  def varHat: Double =
    if (nPos < 2) 0.0
    else math.max(0.0, (sumSqF - sumF * sumF / nPos) / (nPos - 1))
  def stdHat: Double = math.sqrt(varHat)
}

object StratumStats {
  /** Fold oracle observations (f, O) for one cell into sufficient stats. */
  def fromSamples(sizeD: Long, obs: Seq[(Double, Boolean)]): StratumStats = {
    val pos = obs.collect { case (f, true) => f }
    StratumStats(sizeD, obs.size, pos.size, pos.sum, pos.map(f => f * f).sum)
  }
}

/** Result of one algorithm run over one stream. */
final case class RunResult(
    perSegment: Array[Double],
    finalEstimate: Double,
    oracleCalls: Long,
)

/** A streaming (or batch, presented as a stream) estimation algorithm. */
trait StreamAlgorithm {
  def name: String
  def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult
}

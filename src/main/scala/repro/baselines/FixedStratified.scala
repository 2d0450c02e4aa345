package repro.baselines

import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats

/** Stratified-sampling streaming baseline with fixed strata and fixed
  * allocations (paper §5.1).
  *
  * Strata are fixed proxy-score intervals `[0, ⅓), [⅓, ⅔), [⅔, 1]`
  * (generalized to K equal-width intervals); every segment × stratum gets
  * a fixed budget of N/K reservoir samples; the per-segment estimate is
  * the `ŵ_tk`-weighted average of per-stratum sample means, with
  * `ŵ_tk = |D_tk|·p̂_tk / Σ_j |D_tj|·p̂_tj` (paper equations 11–12) —
  * i.e. exactly [[Estimator.estimate]].
  */
final class FixedStratified(k: Int = 3) extends StreamAlgorithm {
  require(k >= 1, s"need at least one stratum, got $k")
  override def name: String = "stratified"

  /** Interior boundaries of K equal-width strata on the proxy range [0,1]. */
  private val boundaries: Array[Double] = Array.tabulate(k - 1)(j => (j + 1).toDouble / k)

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult = {
    val segs = ds.segments(query.segmentLength)
    val oracle = new OracleModel(ds, query.segmentLength, Some(query.budgetPerSegment))
    val perStratum = Stats.largestRemainder(Array.fill(k)(1.0), query.budgetPerSegment)

    val cellsPerSegment = segs.zipWithIndex.map { case (seg, t) =>
      val strataIdxs = Stratification.split(ds, seg, boundaries)
      // Fixed equal-width strata can be sparsely populated; cap at the
      // population and spill the surplus so the budget is not wasted.
      val counts = Allocation.capToSizes(perStratum, strataIdxs.map(_.size.toLong))
      (0 until k).map { s =>
        val sampled = Reservoir.bottomN(strataIdxs(s), counts(s), trialSeed,
          tag = FixedStratified.SampleTag + t)
        StratumStats.fromSamples(strataIdxs(s).size.toLong,
          sampled.map(oracle.observe(_, query.usePredicate)))
      }
    }

    val perSegment = cellsPerSegment.map(cs => Estimator.estimate(cs, query.agg)).toArray
    RunResult(perSegment, Estimator.cumulativeEstimate(cellsPerSegment, query.agg), oracle.totalCalls)
  }
}

object FixedStratified {
  val SampleTag: Long = 0xF1ED57A7L
}

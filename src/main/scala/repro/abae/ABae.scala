package repro.abae

import repro.core._
import repro.sampling.Reservoir
import repro.util.Stats
import scala.collection.immutable.ArraySeq

/** ABae [Kang et al., PVLDB 2021] — the batch-setting comparator (§5.1).
  *
  * ABae observes the proxy-score distribution over the *entire* dataset
  * before sampling (the advantage the paper grants it):
  *
  *   1. stratify the whole dataset into K equal-count strata by proxy
  *      quantiles;
  *   2. pilot stage — spend `pilotFraction` of the total budget NT,
  *      uniformly per stratum, to estimate p̂_k and σ̂_k;
  *   3. allocate the remaining budget ∝ |D_k|·√p̂_k·σ̂_k (the same optimal
  *      form as InQuest's Proposition 1);
  *   4. with sample reuse, the final estimator pools pilot + stage-2
  *      samples per stratum, weighted by p̂_k·|D_k|.
  *
  * Per-segment estimates (needed for the median-segment-RMSE metric)
  * restrict ABae's samples to each segment, exactly as §5.2 describes
  * ("selecting the subset of ABae's oracle samples within each segment").
  */
final class ABae(k: Int = 3, pilotFraction: Double = 0.15) extends StreamAlgorithm {
  require(k >= 1, s"need at least one stratum, got $k")
  require(pilotFraction > 0 && pilotFraction < 1,
    s"pilot fraction must be in (0,1), got $pilotFraction")
  override def name: String = "abae"

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult = {
    val segs = ds.segments(query.segmentLength)
    val totalBudget = math.min(ds.length, query.budgetPerSegment * segs.size)
    // Batch algorithm: the budget is global, not per-segment.
    val oracle = new OracleModel(ds, query.segmentLength, None)

    val boundaries = Stats.quantileBoundaries(ArraySeq.unsafeWrapArray(ds.proxy), k)
    val strataIdxs = Stratification.split(ds, 0 until ds.length, boundaries)

    def observe(idxs: Seq[Long]): Seq[(Long, (Double, Boolean))] =
      idxs.map(i => (i, oracle.observe(i, query.usePredicate)))

    // Stage 1: pilot, uniform per stratum.
    val pilotBudget = math.max(k, math.round(totalBudget * pilotFraction).toInt)
    val pilotPer = Stats.largestRemainder(Array.fill(k)(1.0), pilotBudget)
    val pilotIdxs = (0 until k).map { s =>
      Reservoir.bottomN(strataIdxs(s), pilotPer(s), trialSeed, tag = ABae.PilotTag)
    }
    val pilotSamples = pilotIdxs.map(observe)

    // Stage 2: allocate the rest by the estimated optimal allocation.
    val pilotStats = (0 until k).map { s =>
      StratumStats.fromSamples(strataIdxs(s).size.toLong, pilotSamples(s).map(_._2))
    }
    val alloc = Allocation.optimal(
      strataIdxs.map(_.size.toLong),
      pilotStats.map(_.pHat).toArray,
      pilotStats.map(_.stdHat).toArray)
    val stage2Counts = Stats.largestRemainder(alloc, totalBudget - pilotSamples.map(_.size).sum)
    val stage2Samples = (0 until k).map { s =>
      // The pilot draw is ascending, so membership is a binary search.
      val already = pilotIdxs(s).toArray
      val remaining = java.util.Arrays.stream(strataIdxs(s).unsafeArray)
        .filter(i => java.util.Arrays.binarySearch(already, i) < 0).toArray
      observe(Reservoir.bottomN(new ArraySeq.ofLong(remaining), stage2Counts(s), trialSeed, tag = ABae.Stage2Tag))
    }

    // Sample reuse: pool pilot and stage-2 samples per stratum.
    val pooled = (0 until k).map(s => pilotSamples(s) ++ stage2Samples(s))
    val finalCells = (0 until k).map { s =>
      StratumStats.fromSamples(strataIdxs(s).size.toLong, pooled(s).map(_._2))
    }

    // Per-segment estimates "by selecting the subset of ABae's oracle
    // samples within each segment" (paper §5.2), weighted per segment by
    // ŵ_tk ∝ |D_tk|·p̂_tk: ABae sees every proxy score, so |D_tk| is
    // available (DESIGN.md §6).
    val sizeDtk = Array.ofDim[Long](segs.size, k)
    for (s <- 0 until k; i <- strataIdxs(s).unsafeArray) sizeDtk(i.toInt / query.segmentLength)(s) += 1
    val pooledBySegment = pooled.map(_.groupBy { case (i, _) => (i / query.segmentLength).toInt })
    val perSegment = segs.indices.map { t =>
      val cells = (0 until k).map { s =>
        val inSeg = pooledBySegment(s).getOrElse(t, Vector.empty)
        StratumStats.fromSamples(sizeDtk(t)(s), inSeg.map(_._2))
      }
      Estimator.estimate(cells, query.agg)
    }.toArray

    RunResult(perSegment, Estimator.estimate(finalCells, query.agg), oracle.totalCalls)
  }
}

object ABae {
  val PilotTag: Long = 0xABAE_001L
  val Stage2Tag: Long = 0xABAE_002L
}

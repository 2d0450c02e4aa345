package repro.baselines

import repro.core._
import repro.sampling.Reservoir
import scala.collection.immutable.ArraySeq

/** Uniform-sampling streaming baseline (paper §5.1).
  *
  * Precomputes N·T records to sample uniformly at random over the whole
  * query duration, invokes the oracle on exactly those, and estimates each
  * segment as the plain mean of the statistic over the predicate-matching
  * samples that landed in that segment.
  */
final class UniformSampling extends StreamAlgorithm {
  override def name: String = "uniform"

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult = {
    val segs = ds.segments(query.segmentLength)
    val totalBudget = math.min(ds.length, query.budgetPerSegment * segs.size)
    // No per-segment limit: the draw is uniform over the duration, so some
    // segments legitimately receive more than N samples (the total is N·T).
    val oracle = new OracleModel(ds, query.segmentLength, None)

    val all = new ArraySeq.ofLong(java.util.stream.LongStream.range(0L, ds.length.toLong).toArray)
    val sampled = Reservoir.bottomN(all, totalBudget, trialSeed, tag = UniformSampling.SampleTag)
    val obs = sampled.map(i => (i, oracle.observe(i, query.usePredicate)))
    val bySegment = obs.groupBy { case (i, _) => (i / query.segmentLength).toInt }

    val perSegment = segs.indices.map { t =>
      val inSeg = bySegment.getOrElse(t, Vector.empty)
      val cell = StratumStats.fromSamples(segs(t).size.toLong, inSeg.map(_._2))
      Estimator.estimate(Seq(cell), query.agg)
    }.toArray

    val overall = StratumStats.fromSamples(ds.length.toLong, obs.map(_._2))
    RunResult(perSegment, Estimator.estimate(Seq(overall), query.agg), oracle.totalCalls)
  }
}

object UniformSampling {
  val SampleTag: Long = 0xB0_0F1F02L
}

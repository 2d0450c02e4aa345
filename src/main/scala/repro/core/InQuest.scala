package repro.core

import repro.sampling.Reservoir
import scala.collection.immutable.ArraySeq

/** InQuest hyperparameters (paper §3.2 "Setting parameters" defaults). */
final case class InQuestParams(
    k: Int = 3,
    alpha: Double = 0.8,
    defensiveFraction: Double = 0.1,
) {
  require(k >= 1, s"need at least one stratum, got $k")
  require(alpha >= 0 && alpha <= 1, s"alpha must be in [0,1], got $alpha")
  require(defensiveFraction >= 0 && defensiveFraction <= 1,
    s"defensive fraction must be in [0,1], got $defensiveFraction")
}

/** The InQuest algorithm (paper Algorithms 1–2), record-at-a-time engine:
  * an [[InQuestController]] fed one [[InQuest.LocalPlane]] per segment.
  *
  * The per-trial sampling is a pure function of `trialSeed` (see
  * [[repro.sampling.Reservoir.bottomN]]), which the Catalyst engine
  * reproduces bit-for-bit.
  */
final class InQuest(params: InQuestParams = InQuestParams()) extends StreamAlgorithm {
  override def name: String = "inquest"

  /** Full run; also exposes internals for the lesion study and theory
    * tests via the returned [[InQuest.Trace]].
    */
  def runTraced(ds: StreamDataset, query: QueryConfig, trialSeed: Long): InQuest.Trace = {
    val controller = new InQuestController(params, query)
    val oracle = new OracleModel(ds, query.segmentLength, Some(query.budgetPerSegment))
    ds.segments(query.segmentLength).foreach { seg =>
      controller.step(new InQuest.LocalPlane(ds, seg, oracle, trialSeed, query.usePredicate))
    }
    controller.trace
  }

  override def run(ds: StreamDataset, query: QueryConfig, trialSeed: Long): RunResult =
    runTraced(ds, query, trialSeed).result
}

object InQuest {
  /** Tag decorrelating sampling uniforms from data-generation uniforms. */
  val SampleTag: Long = 0x1A0_57AB1EL

  /** Run result plus internals for white-box tests and the lesion study.
    * Boundaries and counts are those of each post-pilot segment; raw
    * allocations start with the pilot's a_1.
    */
  final case class Trace(
      result: RunResult,
      cells: Seq[Seq[StratumStats]],
      boundariesPerSegment: Seq[Array[Double]],
      countsPerSegment: Seq[Array[Int]],
      rawAllocations: Seq[Array[Double]],
  )

  /** One segment of an in-memory stream as a data plane. The last split
    * is kept, so that sizing and drawing under the same boundaries split
    * the segment once.
    */
  private[core] final class LocalPlane(ds: StreamDataset, seg: Range, oracle: OracleModel,
                         trialSeed: Long, usePredicate: Boolean) extends SegmentPlane {
    private var lastSplit: (Array[Double], Array[ArraySeq.ofLong]) = (null, null)

    private def strata(boundaries: Array[Double]): Array[ArraySeq.ofLong] = {
      if (lastSplit._1 ne boundaries) lastSplit = (boundaries, Stratification.split(ds, seg, boundaries))
      lastSplit._2
    }

    def quantiles(k: Int): Option[Array[Double]] =
      Some(Stratification.quantileStrata(ArraySeq.unsafeWrapArray(ds.proxy).slice(seg.start, seg.end), k))

    def sizes(boundaries: Array[Double]): Array[Long] = strata(boundaries).map(_.size.toLong)

    def sample(drawBoundaries: Array[Double], counts: Array[Int], tag: Long,
               foldBy: Seq[Array[Double]]): Seq[Seq[StratumStats]] = {
      val obs = strata(drawBoundaries).iterator.zip(counts).flatMap { case (idxs, c) =>
        Reservoir.bottomN(idxs, c, trialSeed, tag)
      }.map(i => (i, oracle.observe(i, usePredicate))).toVector
      foldBy.map { b =>
        val byStratum = obs.groupBy { case (i, _) => Stratification.assign(ds.proxy(i.toInt), b) }
        val sz = sizes(b)
        sz.indices.map(s => StratumStats.fromSamples(sz(s), byStratum.getOrElse(s, Vector.empty).map(_._2)))
      }
    }
  }
}

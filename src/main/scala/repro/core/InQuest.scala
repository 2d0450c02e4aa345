package repro.core

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
  * an [[InQuestController]] fed one [[ProxyWindowPlane]] per segment, over
  * the segment's slice of the in-memory stream and the metered
  * [[OracleModel]].
  *
  * The per-trial sampling is a pure function of `trialSeed` (see
  * [[repro.sampling.Reservoir.bottomN]]), which the Spark engine
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
      controller.step(new ProxyWindowPlane(ds.proxy, seg.start, seg.end, trialSeed)(
        _.toLong, i => ds.proxy(i.toInt), _.map(oracle.observe(_, query.usePredicate))))
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
}

package repro.core

/** What the InQuest controller asks of one tumbling window's records. A
  * data plane answers it wherever those records live: the local engine
  * over a [[StreamDataset]]'s index range, the Catalyst engine over a
  * cached DataFrame. A plane covers one window; everything InQuest carries
  * from one window to the next lives in the controller.
  */
trait SegmentPlane {
  /** Exact interior K-quantile boundaries of the window's proxies; None
    * when the window is known to hold no records.
    */
  def quantiles(k: Int): Option[Array[Double]]

  /** |D_k| of each stratum under `boundaries`. */
  def sizes(boundaries: Array[Double]): Array[Long]

  /** One draw: from each stratum under `drawBoundaries`, the bottom
    * `counts(k)` records by `Rng.uniform(trialSeed, idx, tag)` (all of
    * them when the stratum is smaller), with the oracle invoked on exactly
    * those records. The draw is folded into [[StratumStats]] cells once
    * per boundary vector in `foldBy`, in that order.
    */
  def sample(drawBoundaries: Array[Double], counts: Array[Int], tag: Long,
             foldBy: Seq[Array[Double]]): Seq[Seq[StratumStats]]
}

/** InQuest's per-segment policy (Algorithms 1–2), written once for every
  * data plane: the pilot, the EWMA histories of strata boundaries and raw
  * allocations, the per-stratum sample counts, the per-segment
  * `ORACLE LIMIT` check and the estimates. Feed it one [[SegmentPlane]] per
  * tumbling window, in window order.
  *
  * The first non-empty window is the pilot: N uniform samples contributed
  * to the estimate as a single stratum; the same draw, bucketed by the
  * window's own proxy quantiles S_1, seeds both histories (DESIGN.md §6).
  * Every later window t:
  *
  *   1. GetStrata — the boundary history's EWMA;
  *   2. GetAlloc — the allocation history's EWMA plus the N1/K defensive
  *      floor, capped at the stratum sizes;
  *   3. the per-stratum draw with tag `InQuest.SampleTag + t + 1`;
  *   4. GetPrediction, then both histories advance from this window.
  *
  * An empty window (DESIGN.md §6) yields K zero-size cells and estimate 0,
  * makes no oracle calls and leaves the histories as they were; the window
  * index still advances, so later tags stay tied to their windows.
  */
final class InQuestController(params: InQuestParams, query: QueryConfig) {
  private val n = query.budgetPerSegment
  private val (n1, n2) = Allocation.splitBudget(n, params.defensiveFraction)

  private var window = 0
  private var strataHistory = Vector.empty[Array[Double]]
  private var allocHistory = Vector.empty[Array[Double]]
  private var planned = Vector.empty[(Array[Double], Array[Int])]
  private var cells = Vector.empty[Seq[StratumStats]]
  private var estimates = Vector.empty[Double]
  private var calls = 0L

  /** Process the next window; returns the cells its estimate is built from. */
  def step(plane: SegmentPlane): Seq[StratumStats] = {
    val t = window
    val segCells = (if (strataHistory.isEmpty) pilot(plane) else stratified(plane, t))
      .getOrElse(Seq.fill(params.k)(StratumStats(0, 0, 0, 0.0, 0.0)))
    val segCalls = segCells.map(_.nSampled.toLong).sum
    require(segCalls <= n, s"oracle budget exceeded in segment $t: $segCalls > $n")
    calls += segCalls
    cells :+= segCells
    estimates :+= Estimator.estimate(segCells, query.agg)
    window += 1
    segCells
  }

  /** Algorithm 1's pilot; None when the window is empty. */
  private def pilot(plane: SegmentPlane): Option[Seq[StratumStats]] =
    plane.quantiles(params.k).flatMap { s1 =>
      val unstratified = Array.empty[Double]
      val Seq(Seq(pilotCell), byS1) =
        plane.sample(unstratified, Array(n), InQuest.SampleTag, Seq(unstratified, s1))
      Option.when(pilotCell.sizeD > 0) {
        strataHistory :+= s1
        allocHistory :+= Allocation.rawAllocation(byS1)
        Seq(pilotCell)
      }
    }

  /** A post-pilot window; None when it is empty. */
  private def stratified(plane: SegmentPlane, t: Int): Option[Seq[StratumStats]] = {
    val boundaries = Stratification.smooth(strataHistory, params.alpha)
    val sizes = plane.sizes(boundaries)
    Option.when(sizes.sum > 0) {
      val aHat = Allocation.smooth(allocHistory, params.alpha)
      val counts = Allocation.capToSizes(Allocation.sampleCounts(aHat, n1, n2), sizes)
      val Seq(segCells) = plane.sample(boundaries, counts, InQuest.SampleTag + t + 1, Seq(boundaries))
      planned :+= ((boundaries, counts))
      strataHistory :+= plane.quantiles(params.k).get
      allocHistory :+= Allocation.rawAllocation(segCells)
      segCells
    }
  }

  def result: RunResult =
    RunResult(estimates.toArray, Estimator.cumulativeEstimate(cells, query.agg), calls)

  def trace: InQuest.Trace =
    InQuest.Trace(result, cells, planned.map(_._1), planned.map(_._2), allocHistory)
}

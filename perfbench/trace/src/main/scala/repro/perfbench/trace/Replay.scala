package repro.perfbench.trace

import repro.core._
import repro.perfbench.{Checks, Spans}
import repro.sampling.Reservoir

/** The traced run's view into `core`: replays the calls one
  * `InQuest.runTraced` made, segment by segment, through the layers'
  * public functions, with a span around each call. Every intermediate
  * result must equal the trace's bit for bit; any difference is returned
  * as a mismatch and fails the operation.
  */
object Replay {

  final case class Counts(scanned: Long, drawn: Long, oracleCalls: Long, oracleLimit: Long)

  private def bits(xs: Seq[Double]): Seq[Long] = xs.map(java.lang.Double.doubleToRawLongBits)
  private def cellBits(c: StratumStats): Seq[Long] =
    Seq(c.sizeD, c.nSampled.toLong, c.nPos.toLong) ++ bits(Seq(c.sumF, c.sumSqF))

  /** Layer spans the replay records; `inquest.unattributed_ms` is the
    * run's time minus their self time.
    */
  val LayerSpans: Seq[String] = Seq("stratification.quantile", "stratification.split",
    "stratification.smooth", "allocation", "reservoir.bottomn", "oracle.fold", "estimator")

  def inquest(ds: StreamDataset, query: QueryConfig, trialSeed: Long, params: InQuestParams,
              trace: InQuest.Trace, tracer: Spans, check: Checks): Counts = {
    def same(what: String, a: Seq[Double], b: Seq[Double]): Unit =
      check(bits(a) == bits(b), s"replay differs from runTraced in $what")

    val segs = ds.segments(query.segmentLength)
    val n = query.budgetPerSegment
    val k = params.k
    val (n1, n2) = tracer.span("allocation")(Allocation.splitBudget(n, params.defensiveFraction))
    val oracle = new OracleModel(ds, query.segmentLength, Some(n))
    var scanned = 0L
    var drawn = 0L

    def draw(idxs: Seq[Long], count: Int, tag: Long): Vector[Long] = {
      val s = tracer.span("reservoir.bottomn")(Reservoir.bottomN(idxs, count, trialSeed, tag))
      scanned += idxs.size
      drawn += s.size
      s
    }
    def observe(idxs: Seq[Long]): Seq[(Long, Double, Boolean)] = idxs.map { i =>
      val (f, o) = oracle.invoke(i.toInt)
      (i, f, if (query.usePredicate) o else true)
    }
    def fold(sizeD: Long, obs: Seq[(Long, Double, Boolean)]): StratumStats =
      StratumStats.fromSamples(sizeD, obs.map { case (_, f, o) => (f, o) })

    val strataHistory = Vector.newBuilder[Array[Double]]
    val allocHistory = Vector.newBuilder[Array[Double]]
    val allCells = Vector.newBuilder[Seq[StratumStats]]

    // Pilot segment.
    val pilotSeg = segs.head
    val pilotIdxs = draw(pilotSeg.map(_.toLong), math.min(n, pilotSeg.size), InQuest.SampleTag)
    val pilotObs = tracer.span("oracle.fold")(observe(pilotIdxs))
    val pilotCell = tracer.span("oracle.fold")(fold(pilotSeg.size.toLong, pilotObs))
    check(cellBits(pilotCell) == cellBits(trace.cells.head.head), "replay differs in the pilot cell")
    allCells += Seq(pilotCell)
    val est0 = tracer.span("estimator")(Estimator.estimate(Seq(pilotCell), query.agg))
    same("segment 0's estimate", Seq(est0), Seq(trace.result.perSegment(0)))
    val s1 = tracer.span("stratification.quantile")(
      Stratification.quantileStrata(pilotSeg.map(ds.proxy), k))
    strataHistory += s1
    val (byStratum, sizes1) = tracer.span("stratification.split") {
      (pilotObs.groupBy { case (i, _, _) => Stratification.assign(ds.proxy(i.toInt), s1) },
        Stratification.split(ds, pilotSeg, s1).map(_.size.toLong))
    }
    val pilotCells = tracer.span("oracle.fold")(
      (0 until k).map(s => fold(sizes1(s), byStratum.getOrElse(s, Vector.empty))))
    val a1 = tracer.span("allocation")(Allocation.rawAllocation(pilotCells))
    same("segment 0's raw allocation", a1.toSeq, trace.rawAllocations.head.toSeq)
    allocHistory += a1

    for (t <- 1 until segs.size) {
      val seg = segs(t)
      val boundaries = tracer.span("stratification.smooth")(
        Stratification.smooth(strataHistory.result(), params.alpha))
      same(s"segment $t's boundaries", boundaries.toSeq, trace.boundariesPerSegment(t - 1).toSeq)
      val aHat = tracer.span("allocation")(Allocation.smooth(allocHistory.result(), params.alpha))
      val strataIdxs = tracer.span("stratification.split")(Stratification.split(ds, seg, boundaries))
      val counts = tracer.span("allocation")(Allocation.capToSizes(
        Allocation.sampleCounts(aHat, n1, n2), strataIdxs.map(_.size.toLong)))
      check(counts.toSeq == trace.countsPerSegment(t - 1).toSeq, s"replay differs in segment $t's counts")
      val cells = (0 until k).map { s =>
        val sampled = draw(strataIdxs(s), counts(s), InQuest.SampleTag + t + 1)
        tracer.span("oracle.fold")(fold(strataIdxs(s).size.toLong, observe(sampled)))
      }
      check(cells.map(cellBits) == trace.cells(t).map(cellBits), s"replay differs in segment $t's cells")
      allCells += cells
      val est = tracer.span("estimator")(Estimator.estimate(cells, query.agg))
      same(s"segment $t's estimate", Seq(est), Seq(trace.result.perSegment(t)))
      strataHistory += tracer.span("stratification.quantile")(
        Stratification.quantileStrata(seg.map(ds.proxy), k))
      val a = tracer.span("allocation")(Allocation.rawAllocation(cells))
      same(s"segment $t's raw allocation", a.toSeq, trace.rawAllocations(t).toSeq)
      allocHistory += a
    }

    val fin = tracer.span("estimator")(Estimator.cumulativeEstimate(allCells.result(), query.agg))
    same("the final estimate", Seq(fin), Seq(trace.result.finalEstimate))
    check(oracle.totalCalls == trace.result.oracleCalls,
      s"replay made ${oracle.totalCalls} oracle calls, runTraced ${trace.result.oracleCalls}")
    check(segs.indices.forall(t => oracle.callsInSegment(t) <= n), s"a segment exceeded its ORACLE LIMIT of $n")
    Counts(scanned, drawn, oracle.totalCalls, n.toLong * segs.size)
  }
}

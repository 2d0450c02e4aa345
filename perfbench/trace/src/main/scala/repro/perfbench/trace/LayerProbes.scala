package repro.perfbench.trace

import scala.collection.mutable.ArrayBuffer

import repro.core._
import repro.eval.{Algorithms, Runner, TrialOutcome}
import repro.perfbench._

/** Entry point of the traced run (`run.py --trace 1`): the benchmark's
  * main with the per-layer probes below.
  */
object TraceMain {
  def main(args: Array[String]): Unit = Main.start(args, Some(LayerProbes))
}

/** The traced run's per-layer probes. They call internals of `core`,
  * `eval` and the baselines, so they are compiled apart from the timed
  * run, which calls only the program's stable entry points.
  */
object LayerProbes extends Probes {
  /** Replays per probe, each made once with spans and once with no-op
    * spans.
    */
  val Replays = 5

  def apply(w: Workload, tracer: Tracer): Unit = {
    w match {
      case m: McSweep => sweepLayers(m, tracer)
      case _ =>
    }
    replayCore(w, tracer)
  }

  private def ms(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e6
  }

  /** The sweep's layers on one thread: ground truth, one direct trial per
    * algorithm and the runner's summary of it.
    */
  private def sweepLayers(m: McSweep, tracer: Tracer): Unit = {
    val report = m.report
    val ds = m.datasets.head
    val nt = m.Budgets.last
    val q = m.query(nt)
    report.add("eval.truth_ms", "ms", ms(tracer.span("eval.truth") {
      ds.truthPerSegment(q.segmentLength, q.usePredicate, q.agg); ds.truthOverall(q.usePredicate, q.agg)
    }))
    for (algo <- Algorithms.All) report.op(s"direct trial $algo") { check =>
      var r: RunResult = null
      report.add(s"algo.$algo.trial_ms", "ms",
        ms { r = tracer.span(s"algo.$algo")(Algorithms.byName(algo).run(ds, q, m.baseSeed(nt))) })
      check(r.oracleCalls <= nt, s"$algo made ${r.oracleCalls} oracle calls, budget $nt")
      val outcome = TrialOutcome(0, r.perSegment.toSeq, r.finalEstimate, r.oracleCalls)
      report.add("runner.summarize_ms", "ms",
        ms(tracer.span("runner.summarize")(Runner.summarize(ds, algo, q, Seq(outcome)))))
    }
  }

  /** Replays one `InQuest.runTraced` layer by layer, `Replays` times.
    * Each time: the untraced run, the replay with no-op spans and the
    * replay with spans, in alternating order. `trace.overhead_ms` is the
    * difference of the two replays' medians; `inquest.unattributed_ms` is
    * the run's time minus the layers' self times in the traced replay.
    */
  private def replayCore(w: Workload, tracer: Tracer): Unit = {
    val CoreRun(ds, query, ts, key) = w.coreRun()
    val report = w.report
    val params = InQuestParams()
    val plain = ArrayBuffer.empty[Double]
    val traced = ArrayBuffer.empty[Double]
    for (rep <- 0 until Replays) report.op(s"replay $key, repeat $rep") { check =>
      var trace: InQuest.Trace = null
      val runMs = ms { trace = new InQuest(params).runTraced(ds, query, ts) }
      Digests.verify(check, w.name, w.seed, key, Digests.run(trace.result))
      var counts: Replay.Counts = null
      def withSpans(): Unit = {
        val before = tracer.selfTimes
        traced += ms { counts = tracer.span("inquest.replay")(Replay.inquest(ds, query, ts, params, trace, tracer, check)) }
        layerMetrics(report, before, tracer.selfTimes, counts, runMs)
      }
      def withoutSpans(): Unit = plain += ms(Replay.inquest(ds, query, ts, params, trace, NoSpans, check))
      if (rep % 2 == 0) { withoutSpans(); withSpans() } else { withSpans(); withoutSpans() }
    }
    report.add("trace.overhead_ms", "ms", Report.median(traced.toSeq) - Report.median(plain.toSeq))
  }

  private def layerMetrics(report: Report, before: Map[String, (Double, Double)],
                           after: Map[String, (Double, Double)], counts: Replay.Counts, runMs: Double): Unit = {
    def layer(n: String): (Double, Double) = {
      val (ms, mb) = after.getOrElse(n, (0.0, 0.0))
      val (ms0, mb0) = before.getOrElse(n, (0.0, 0.0))
      (ms - ms0, mb - mb0)
    }
    val strat = Seq("stratification.quantile", "stratification.split", "stratification.smooth").map(layer)
    report.add("stratification.quantile_ms", "ms", strat(0)._1)
    report.add("stratification.split_ms", "ms", strat(1)._1)
    report.add("stratification.smooth_ms", "ms", strat(2)._1)
    report.add("stratification.alloc_mb", "MB", strat.map(_._2).sum)
    report.add("allocation.ms", "ms", layer("allocation")._1)
    report.add("reservoir.bottomn_ms", "ms", layer("reservoir.bottomn")._1)
    report.add("reservoir.alloc_mb", "MB", layer("reservoir.bottomn")._2)
    report.add("reservoir.scanned", "count", counts.scanned.toDouble)
    report.add("reservoir.drawn", "count", counts.drawn.toDouble)
    report.add("reservoir.drawn_per_scanned", "ratio", counts.drawn.toDouble / counts.scanned)
    report.add("oracle.calls", "count", counts.oracleCalls.toDouble)
    report.add("oracle.calls_per_limit", "ratio", counts.oracleCalls.toDouble / counts.oracleLimit)
    report.add("oracle.fold_ms", "ms", layer("oracle.fold")._1)
    report.add("estimator.ms", "ms", layer("estimator")._1)
    report.add("inquest.run_ms", "ms", runMs)
    report.add("inquest.unattributed_ms", "ms", runMs - Replay.LayerSpans.map(n => layer(n)._1).sum)
  }
}

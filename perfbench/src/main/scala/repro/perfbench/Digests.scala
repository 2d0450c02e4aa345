package repro.perfbench

import java.security.MessageDigest

import repro.core.RunResult
import repro.eval.EvalPoint

/** Output digests, and the reference digests recorded for two workload
  * seeds (`reference-digests.tsv`, one `workload seed key digest` line
  * each; regenerate with `run.py --record-digests`).
  */
object Digests {

  private def sha(parts: Seq[String]): String =
    MessageDigest.getInstance("SHA-256").digest(parts.mkString("|").getBytes("UTF-8"))
      .take(8).map(b => f"${b & 0xff}%02x").mkString

  /** Per-segment estimates (raw bits) and oracle calls. */
  def run(r: RunResult): String =
    sha(r.perSegment.toSeq.map(d => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))) :+
      java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(r.finalEstimate)) :+
      r.oracleCalls.toString)

  /** An evaluation point, its error metrics to 12 significant digits:
    * `Runner.summarize` sums over trials in the order Spark returns them,
    * which follows the number of cores. At 16 trials, summarizing the same
    * outcomes in another order changes the last bits of most points.
    */
  def point(p: EvalPoint): String =
    sha(Seq(p.dataset, p.algorithm, p.totalBudget.toString, p.nTrials.toString) ++
      Seq(p.meanTrialMedianError, p.medianSegmentRmse, p.fullQueryRmse, p.meanOracleCalls)
        .map(x => f"$x%.12g"))

  private lazy val reference: Map[(String, Long, String), String] = {
    val in = getClass.getResourceAsStream("reference-digests.tsv")
    if (in == null) Map.empty
    else try {
      scala.io.Source.fromInputStream(in, "UTF-8").getLines()
        .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
        .map(_.split("\t")).map(a => (a(0), a(1).toLong, a(2)) -> a(3)).toMap
    } finally in.close()
  }

  /** Checks `actual` against the recorded digest, when its seed was recorded. */
  def verify(check: Checks, workload: String, seed: Long, key: String, actual: String): Unit =
    reference.get((workload, seed, key)).foreach { want =>
      check(want == actual, s"$key digest $actual differs from the recorded $want")
    }
}

package repro.perfbench

import scala.collection.mutable

/** Named lists of samples, the operation tally and the run's JSON report. */
final class Report(val workload: String, val seed: Long, val traced: Boolean) {

  private val samples = mutable.LinkedHashMap.empty[String, (String, mutable.ArrayBuffer[Double])]
  private val failures = mutable.ArrayBuffer.empty[String]
  private var attemptedOps = 0L
  val info = mutable.LinkedHashMap.empty[String, Any]

  def add(name: String, unit: String, value: Double): Unit =
    samples.getOrElseUpdate(name, (unit, mutable.ArrayBuffer.empty))._2 += value

  def values(name: String): Seq[Double] = samples.get(name).map(_._2.toSeq).getOrElse(Nil)

  def median(name: String): Double = Report.median(values(name))

  def unit(name: String): String = samples.get(name).map(_._1).getOrElse("")

  /** One checked operation: it fails if it throws or a check in it fails. */
  def op(label: String)(body: Checks => Unit): Unit = {
    attemptedOps += 1
    val checks = new Checks
    try body(checks)
    catch { case e: Exception => checks.fail(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    if (checks.failed.nonEmpty) {
      val msg = s"$label: ${checks.failed.mkString("; ")}"
      failures += msg
      Console.err.println(s"[perfbench] FAILED $msg")
    }
  }

  def attempted: Long = attemptedOps
  def failed: Long = failures.size.toLong
  def failureMessages: Seq[String] = failures.toSeq

  /** Median, sample count and the highest of p75/p90/p95/p99 that has at
    * least ten samples beyond it.
    */
  def summary(name: String): String = {
    val xs = values(name)
    val tail = Report.tailPercentile(xs).map { case (p, v) => f"  p$p%d ${Report.fmt(v)}" }.getOrElse("")
    f"$name%-34s median ${Report.fmt(Report.median(xs))}%12s ${unit(name)}%-6s n=${xs.size}%d$tail"
  }

  def names: Seq[String] = samples.keys.toSeq

  /** Every sample list, with its median and tail, as a JSON object. */
  def samplesJson: String =
    samples.map { case (name, (unit, xs)) =>
      val tail = Report.tailPercentile(xs.toSeq)
        .map { case (p, v) => s""","p$p":${Json.num(v)}""" }.getOrElse("")
      s"""${Json.str(name)}:{"unit":${Json.str(unit)},"median":${Json.num(Report.median(xs.toSeq))},""" +
        s""""n":${xs.size}$tail,"samples":[${xs.map(Json.num).mkString(",")}]}"""
    }.mkString("{", ",", "}")
}

/** The checks made inside one operation. */
final class Checks {
  val failed = mutable.ArrayBuffer.empty[String]
  def fail(msg: String): Unit = failed += msg
  def apply(ok: Boolean, msg: => String): Unit = if (!ok) fail(msg)
}

object Report {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** Linear-interpolation percentile (p in 0..100). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val pos = p / 100 * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def tailPercentile(xs: Seq[Double]): Option[(Int, Double)] =
    Seq(99, 95, 90, 75).find(p => xs.size * (100 - p) / 100.0 >= 10).map(p => (p, percentile(xs, p)))

  def fmt(x: Double): String =
    if (x.isNaN) "n/a" else if (math.abs(x) >= 100) f"$x%.2f" else f"$x%.4f"
}

/** Just enough JSON writing for the report files. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")

  def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case d: Double  => num(d)
    case i: Int     => i.toString
    case l: Long    => l.toString
    case b: Boolean => b.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => s"${str(k.toString)}:${value(x)}" }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(value).mkString("[", ",", "]")
    case other => str(other.toString)
  }
}

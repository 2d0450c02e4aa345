package repro.perfbench

import java.nio.file.{Files, Path, Paths}

/** The traced run's per-layer probes, called once its traced operations
  * have run. They live in the `trace` subproject, whose entry point is
  * `repro.perfbench.trace.TraceMain`.
  */
trait Probes {
  def apply(w: Workload, tracer: Tracer): Unit
}

/** Benchmark entry point; `perfbench/run.py` builds and launches it.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace 0
  *        --out <dir> --result <file>
  *
  * Sets up the workload `SetUps` times (the median is `setup_s`), warms it
  * up, then runs operations for `--seconds` seconds (at least the
  * workload's minimum). With `--trace 1` (through `TraceMain`) the
  * operations are traced and the per-layer probes follow. The run's
  * report is written to `<out>/BENCH_<workload>_seed<n>[_trace].json`,
  * and the one-line result to `--result`.
  */
object Main {
  val SetUps = 3

  /** Per-layer metrics: every workload's traced run reports each of them.
    * The Spark, runner and baseline layers' metrics exist only on some
    * workloads and appear in the report file instead.
    */
  val PerLayer: Seq[String] = Seq(
    "data.generate_s",
    "stratification.quantile_ms", "stratification.split_ms", "stratification.smooth_ms",
    "stratification.alloc_mb", "allocation.ms",
    "reservoir.bottomn_ms", "reservoir.scanned", "reservoir.drawn", "reservoir.drawn_per_scanned",
    "reservoir.alloc_mb",
    "oracle.calls", "oracle.calls_per_limit", "oracle.fold_ms", "estimator.ms",
    "inquest.run_ms", "inquest.unattributed_ms",
    "jvm.gc_ms", "jvm.retained_mb", "trace.overhead_ms",
  )

  private def arg(args: Array[String], name: String): Option[String] =
    args.sliding(2).collectFirst { case Array(`name`, v) => v }

  def main(args: Array[String]): Unit = start(args, None)

  def start(args: Array[String], probes: Option[Probes]): Unit = {
    val workload = arg(args, "--workload").getOrElse(sys.error("--workload is required"))
    val seed = arg(args, "--seed").map(_.toLong).getOrElse(1L)
    val seconds = arg(args, "--seconds").map(_.toDouble).getOrElse(10.0)
    val traced = arg(args, "--trace").contains("1")
    require(!traced || probes.isDefined, "the traced run starts from repro.perfbench.trace.TraceMain")
    val out = Paths.get(arg(args, "--out").getOrElse("perfbench/out"))
    val resultFile = arg(args, "--result").map(Paths.get(_))
    Files.createDirectories(out)

    val report = new Report(workload, seed, traced)
    val w = Workload(workload, report, seed)
    val code =
      try {
        if (args.contains("--record-digests")) { record(w); 0 }
        else { run(w, report, seconds, probes.filter(_ => traced), out, resultFile); 0 }
      } catch {
        case e: Throwable =>
          Console.err.println(s"[perfbench] aborted: $e")
          e.printStackTrace()
          1
      }
    System.exit(code)
  }

  private def machine(report: Report): Unit = {
    report.info("workload") = report.workload
    report.info("seed") = report.seed
    report.info("traced") = report.traced
    report.info("nproc") = Runtime.getRuntime.availableProcessors
    report.info("jdk") = s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}"
    report.info("spark") = org.apache.spark.SPARK_VERSION
    report.info("driver_heap_mb") = Runtime.getRuntime.maxMemory / (1 << 20)
    report.info("os") = s"${sys.props("os.name")} ${sys.props("os.arch")}"
  }

  private def run(w: Workload, report: Report, seconds: Double, probes: Option[Probes],
                  out: Path, resultFile: Option[Path]): Unit = {
    val traced = probes.isDefined
    machine(report)
    println(s"[perfbench] ${report.info.map { case (k, v) => s"$k=$v" }.mkString(" ")}")

    val start = System.nanoTime()
    def phase(name: String): Unit =
      Console.err.println(f"[perfbench] ${(System.nanoTime() - start) / 1e9}%.1f s: $name")
    for (r <- 0 until SetUps) {
      if (r > 0) w.tearDown()
      val t0 = System.nanoTime()
      w.setUp()
      report.add("setup_s", "s", (System.nanoTime() - t0) / 1e9)
    }
    phase("set up")
    w.warmUp()
    phase("warmed up")
    if (traced) report.add("jvm.retained_mb", "MB", Jvm.retainedMb())
    val gc0 = Jvm.gcMillis()

    val tracer = Option.when(traced)(new Tracer)
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var i = 0
    while (i < w.minOps || elapsed < seconds) {
      tracer.foreach(_.currentOp = i)
      w.runOp(i, tracer)
      i += 1
    }
    for (p <- probes; tr <- tracer) {
      // GC time per measured operation, so that it does not grow with the
      // number of operations that fit in the run.
      report.add("jvm.gc_ms", "ms", (Jvm.gcMillis() - gc0).toDouble / i)
      tr.currentOp = i
      p(w, tr)
      tr.writeJsonLines(out.resolve(s"spans_${w.name}_seed${report.seed}.jsonl"))
    }
    phase("measured")
    w.tearDown()

    val (opS, segmentMs) = w.endToEnd
    val metrics: Seq[(String, Double, String)] =
      if (!traced) Seq(("setup_s", report.median("setup_s"), "s"), ("op_s", opS, "s"), ("segment_ms", segmentMs, "ms"))
      else PerLayer.map(n => (n, report.median(n), report.unit(n)))

    val gap = w.gapStream
    println(s"[perfbench] ${w.name} seed=${report.seed} traced=$traced: samples (median, count, tail percentile)")
    report.names.foreach(n => println(s"[perfbench]   ${report.summary(n)}"))
    if (!traced) println(s"[perfbench]   end to end: setup_s, op_s = ${w.namedTimings.head}, " +
      s"segment_ms = ${w.namedTimings.last} per segment estimate")
    println(f"[perfbench] operations: ${report.attempted} attempted, ${report.failed} failed " +
      f"(${if (report.attempted == 0) 0.0 else 100.0 * report.failed / report.attempted}%.1f%%)")
    gap.foreach { case (a, f) =>
      println(s"[perfbench] gap-in-idx stream (known defect, outside the operation tally): $a attempted, $f failed")
    }

    val correct = report.failed == 0 && metrics.forall(m => !m._2.isNaN)
    val metricsJson = metrics.map { case (n, v, u) => s"${Json.str(n)}:{\"value\":${Json.num(v)},\"unit\":${Json.str(u)}}" }
      .mkString("{", ",", "}")
    val result = s"""{"correct":$correct,"attempted":${report.attempted},"failed":${report.failed},"metrics":$metricsJson}"""

    val benchFile = out.resolve(s"BENCH_${w.name}_seed${report.seed}${if (traced) "_trace" else ""}.json")
    val extra = gap.map { case (a, f) => s""","gap_stream":{"attempted":$a,"failed":$f}""" }.getOrElse("")
    Files.write(benchFile, (s"""{"machine":${Json.value(report.info)},"result":$result,""" +
      s""""failures":${Json.value(report.failureMessages)}$extra,"samples":${report.samplesJson}}""" + "\n").getBytes("UTF-8"))
    println(s"[perfbench] report written to $benchFile")
    resultFile match {
      case Some(p) => Files.write(p, (result + "\n").getBytes("UTF-8"))
      case None => println(result)
    }
  }

  /** Prints the reference digests for this seed as `reference-digests.tsv` lines. */
  private def record(w: Workload): Unit =
    w.record().foreach { case (key, d) => println(s"${w.name}\t${w.seed}\t$key\t$d") }
}

package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions.col

import repro.core._
import repro.data.Datasets
import repro.eval.{Algorithms, Runner}
import repro.spark.{SparkData, SparkInQuest, StreamRecord, StreamingInQuest}

/** One benchmark workload: a closed loop with a single caller, where each
  * operation starts after the previous one returned.
  */
abstract class Workload(val report: Report, val seed: Long) {
  def name: String
  /** Builds every input from the seed; timed as `setup_s`. */
  def setUp(): Unit
  def tearDown(): Unit
  /** Untimed operations run once after set-up (JIT, codegen, caches). */
  def warmUp(): Unit
  /** At least this many operations are measured, however long they take. */
  def minOps: Int = 1
  /** Operation `i`: records its own timings and checks its outputs. */
  def runOp(i: Int, tracer: Option[Tracer]): Unit
  /** Traced run only: a `core.InQuest` run of the shape the workload's
    * operations make, for the probes to replay layer by layer.
    */
  def coreRun(): CoreRun
  /** `op_s` and `segment_ms`, from the samples the operations recorded. */
  def endToEnd: (Double, Double)
  /** The workload's own names for its timings, printed with the report:
    * `op_s` is the first's median, `segment_ms` the last's per segment.
    */
  def namedTimings: Seq[String]
  /** (key, digest) of every output the checks compare with a recording. */
  def record(): Seq[(String, String)]
  /** Attempted and failed submissions of the gap-in-`idx` stream, which
    * are tallied apart from the operations.
    */
  def gapStream: Option[(Int, Int)] = None

  protected def secondsOf(body: => Unit): Double = {
    val t0 = System.nanoTime()
    body
    (System.nanoTime() - t0) / 1e9
  }

  protected def trialSeed(i: Int): Long = seed * 1000000L + i

  /** `body`, inside a span named `name` when the operation is traced. */
  protected def maybeSpan[A](tracer: Option[Tracer], name: String)(body: => A): A =
    tracer match {
      case Some(tr) => tr.span(name)(body)
      case None => body
    }

  protected def sameBits(a: Seq[Double], b: Seq[Double]): Boolean =
    a.map(java.lang.Double.doubleToRawLongBits) == b.map(java.lang.Double.doubleToRawLongBits)
}

/** The input of one `core.InQuest` run, and the key its reference digest
  * is recorded under.
  */
final case class CoreRun(ds: StreamDataset, query: QueryConfig, trialSeed: Long, key: String)

object Workload {
  val Names: Seq[String] = Seq("mc-sweep", "long-stream", "spark-engine")

  def apply(name: String, report: Report, seed: Long): Workload = name match {
    case "mc-sweep"     => new McSweep(report, seed)
    case "long-stream"  => new LongStream(report, seed)
    case "spark-engine" => new SparkEngine(report, seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other'; known: ${Names.mkString(", ")}")
  }

  /** The benchmark's SparkSession: `local[nproc]`, settings of the jobs'
    * session, logging quieted by the benchmark's log4j2.properties.
    */
  def startSpark(): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("inquest-perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.streaming.forceDeleteTempCheckpointLocation", "true")
      .getOrCreate()
}

/** Tables 3–4 harness, reduced: `Runner.evaluate` for archie and
  * customer-support at 250 000 records, T = 5, predicate on,
  * NT ∈ {500, 5000}, all four algorithms, 16 trials per point.
  */
final class McSweep(report: Report, seed: Long) extends Workload(report, seed) {
  val name = "mc-sweep"
  // Half the paper-scale 500 000 records, so that two sweeps fit a run.
  private val Length = 250000
  private val T = 5
  // Four times the cores of the 4-core host the benchmark was tuned on,
  // so that trials queue for the cores and the work each trial repeats
  // shows in the sweep's wall time; at 2 trials they run side by side.
  private val Trials = 16
  val Budgets = Seq(500, 5000)
  private var spark: SparkSession = _
  private var generated: Seq[StreamDataset] = Nil
  private val seen = scala.collection.mutable.Map.empty[String, String]

  def datasets: Seq[StreamDataset] = generated
  def query(nt: Int): QueryConfig = QueryConfig(AggFunc.Avg, usePredicate = true, Length / T, nt / T)
  def baseSeed(nt: Int): Long = seed * 100 + nt

  def setUp(): Unit = {
    report.add("data.generate_s", "s", secondsOf {
      generated = Seq("archie", "customer-support").map(Datasets.generate(_, Length, seed))
    })
    report.add("spark.start_s", "s", secondsOf { spark = Workload.startSpark() })
  }

  def tearDown(): Unit = spark.stop()

  private def evaluate(ds: StreamDataset, nt: Int, algo: String): Unit =
    report.op(s"evaluate ${ds.name} NT=$nt $algo") { check =>
      val p = Runner.evaluate(spark, ds, algo, query(nt), Trials, baseSeed(nt))
      check(p.nTrials == Trials, s"${p.nTrials} trials, expected $Trials")
      check(p.meanOracleCalls > 0 && p.meanOracleCalls <= nt, s"mean oracle calls ${p.meanOracleCalls} outside (0, $nt]")
      check(Seq(p.meanTrialMedianError, p.medianSegmentRmse, p.fullQueryRmse).forall(e => e >= 0 && !e.isInfinite),
        s"error metrics not finite: $p")
      val key = s"${ds.name}/$nt/$algo"
      val d = Digests.point(p)
      Digests.verify(check, name, seed, key, d)
      check(seen.getOrElseUpdate(key, d) == d, s"$key differs from its earlier evaluation in this run")
    }

  def warmUp(): Unit = Algorithms.All.foreach(a => evaluate(datasets.head, Budgets.head, a))
  override def minOps: Int = 2

  def runOp(i: Int, tracer: Option[Tracer]): Unit = {
    val counters = tracer.map(_ => new SparkCounters(spark.sparkContext))
    counters.foreach(spark.sparkContext.addSparkListener)
    val s = secondsOf {
      for (ds <- datasets; nt <- Budgets; algo <- Algorithms.All) tracer match {
        case None => evaluate(ds, nt, algo)
        case Some(tr) =>
          val c = counters.get
          c.reset()
          val wall = secondsOf(tr.span(s"runner.evaluate.$algo")(evaluate(ds, nt, algo)))
          val snap = c.snapshot()
          report.add(s"runner.evaluate_s.$algo", "s", wall)
          report.add("runner.jobs_per_evaluate", "count", snap.jobs.toDouble)
          report.add("runner.task_busy_share", "ratio",
            snap.taskRunMs / (1000.0 * wall * Runtime.getRuntime.availableProcessors))
      }
    }
    counters.foreach(spark.sparkContext.removeSparkListener)
    report.add("sweep_s", "s", s)
  }

  def coreRun(): CoreRun = {
    val nt = Budgets.last
    CoreRun(datasets.head, query(nt), baseSeed(nt), "replay")
  }

  def record(): Seq[(String, String)] = {
    setUp()
    try {
      val points = for (ds <- datasets; nt <- Budgets; algo <- Algorithms.All) yield
        s"${ds.name}/$nt/$algo" -> Digests.point(Runner.evaluate(spark, ds, algo, query(nt), Trials, baseSeed(nt)))
      val nt = Budgets.last
      points :+ ("replay" -> Digests.run(new InQuest().run(datasets.head, query(nt), baseSeed(nt))))
    } finally tearDown()
  }

  private def segmentsPerSweep = datasets.size * Budgets.size * Algorithms.All.size * Trials * T

  def endToEnd: (Double, Double) = {
    val sweep = report.median("sweep_s")
    (sweep, 1000 * sweep / segmentsPerSweep)
  }

  def namedTimings: Seq[String] = Seq("sweep_s")
}

/** The deployment shape: one long query, `core.InQuest.run` on one thread
  * over a 2 000 000-record archie stream, 400 segments of 5 000 records,
  * N = 100, no predicate; each query uses a fresh trial seed.
  */
final class LongStream(report: Report, seed: Long) extends Workload(report, seed) {
  val name = "long-stream"
  private val Length = 2000000
  private val SegmentLength = 5000
  private val N = 100
  private val query = QueryConfig(AggFunc.Avg, usePredicate = false, SegmentLength, N)
  private val T = Length / SegmentLength
  private var ds: StreamDataset = _
  private var nextQuery = 0

  def setUp(): Unit =
    report.add("data.generate_s", "s", secondsOf { ds = Datasets.generate("archie", Length, seed) })

  def tearDown(): Unit = ds = null

  private def oneQuery(tracer: Option[Tracer]): Double = {
    val i = nextQuery
    nextQuery += 1
    var wall = Double.NaN
    report.op(s"query $i") { check =>
      var r: RunResult = null
      wall = secondsOf { r = maybeSpan(tracer, "inquest.run")(new InQuest().run(ds, query, trialSeed(i))) }
      check(r.perSegment.length == T, s"${r.perSegment.length} segment estimates, expected $T")
      check(r.oracleCalls <= N.toLong * T, s"${r.oracleCalls} oracle calls over the limit ${N * T}")
      Digests.verify(check, name, seed, s"query/$i", Digests.run(r))
    }
    wall
  }

  def warmUp(): Unit = for (_ <- 0 until 3) oneQuery(None)
  override def minOps: Int = 3

  def runOp(i: Int, tracer: Option[Tracer]): Unit = report.add("query_s", "s", oneQuery(tracer))

  def coreRun(): CoreRun = {
    val i = nextQuery
    nextQuery += 1
    CoreRun(ds, query, trialSeed(i), s"query/$i")
  }

  def endToEnd: (Double, Double) = {
    val q = report.median("query_s")
    (q, 1000 * q / T)
  }

  def namedTimings: Seq[String] = Seq("query_s")

  def record(): Seq[(String, String)] = {
    setUp()
    (0 until LongStream.Recorded).map(i => s"query/$i" -> Digests.run(new InQuest().run(ds, query, trialSeed(i))))
  }
}

object LongStream {
  /** Queries whose digests are recorded; later ones are checked without. */
  val Recorded = 64
}

/** The Catalyst engine: an archie stream cached as a DataFrame through
  * `SparkInQuest.run`, and fed to `StreamingInQuest` one segment per
  * micro-batch. Once per run it also submits the stream with segment 2
  * removed (a gap in `idx`), outside every timing.
  */
final class SparkEngine(report: Report, seed: Long) extends Workload(report, seed) {
  val name = "spark-engine"
  private val Length = 100000
  private val T = 5
  private val N = 500
  private val GapSegment = 2
  private var spark: SparkSession = _

  /** A stream, its query, and the stream as a cached DataFrame and as
    * one micro-batch per segment.
    */
  private final case class Input(ds: StreamDataset, query: QueryConfig, df: DataFrame,
                                 batches: Seq[Seq[StreamRecord]])
  private var full: Input = _
  /** The same query shape on 1/20 of the records: the warm-up runs the
    * same Spark jobs through the planner, codegen and JIT.
    */
  private var tiny: Input = _
  private var gapDf: DataFrame = _
  private var gapAttempted = 0
  private var gapFailed = 0
  override def gapStream: Option[(Int, Int)] = Some((gapAttempted, gapFailed))

  private def input(ds: StreamDataset, query: QueryConfig): Input = {
    val df = SparkData.toDF(spark, ds).cache()
    df.count()
    Input(ds, query, df, ds.segments(query.segmentLength).map(_.map(i =>
      StreamRecord(i.toLong, ds.proxy(i), ds.statistic(i), ds.predicate(i)))))
  }

  def setUp(): Unit = {
    var ds: StreamDataset = null
    report.add("data.generate_s", "s", secondsOf { ds = Datasets.generate("archie", Length, seed) })
    report.add("spark.start_s", "s", secondsOf { spark = Workload.startSpark() })
    report.add("sparkdata.todf_s", "s", secondsOf {
      full = input(ds, QueryConfig(AggFunc.Avg, usePredicate = true, Length / T, N))
      val l = full.query.segmentLength.toLong
      gapDf = full.df.filter(col("idx") < GapSegment * l || col("idx") >= (GapSegment + 1) * l).cache()
      gapDf.count()
    })
    tiny = input(Datasets.generate("archie", Length / 20, seed),
      QueryConfig(AggFunc.Avg, usePredicate = true, Length / 20 / T, N / 20))
  }

  def tearDown(): Unit = spark.stop()

  private var nextPass = 0

  def warmUp(): Unit = pass(tiny, None, timed = false)

  def runOp(i: Int, tracer: Option[Tracer]): Unit = pass(full, tracer, timed = true)

  /** One pass: the local engine for reference, `SparkInQuest.run` and
    * the streaming driver; the first measured pass also submits the gap
    * stream.
    */
  private def pass(in: Input, tracer: Option[Tracer], timed: Boolean): Unit = {
    val i = nextPass
    nextPass += 1
    val ts = trialSeed(i)
    // The local engine enforces each segment's ORACLE LIMIT itself (it
    // throws); the streaming pass checks it per published segment.
    val want = new InQuest().run(in.ds, in.query, ts)
    val n = in.query.budgetPerSegment
    report.op(s"local engine pass $i") { check =>
      check(want.oracleCalls <= n.toLong * want.perSegment.length, s"${want.oracleCalls} oracle calls over the limit")
      if (in eq full) Digests.verify(check, name, seed, s"pass/$i", Digests.run(want))
    }
    val counters = tracer.map(_ => new SparkCounters(spark.sparkContext))
    counters.foreach { c =>
      spark.sparkContext.addSparkListener(c)
      spark.streams.addListener(c.streaming)
    }

    counters.foreach(_.reset())
    var runS = Double.NaN
    report.op(s"SparkInQuest.run pass $i") { check =>
      var r: RunResult = null
      runS = secondsOf { r = maybeSpan(tracer, "spark.run")(SparkInQuest.run(in.df, in.query, ts)) }
      check(sameBits(r.perSegment.toSeq, want.perSegment.toSeq) && sameBits(Seq(r.finalEstimate), Seq(want.finalEstimate)),
        s"estimates ${r.perSegment.mkString(",")} differ from the local engine's ${want.perSegment.mkString(",")}")
      check(r.oracleCalls == want.oracleCalls, s"${r.oracleCalls} oracle calls, local engine ${want.oracleCalls}")
    }
    if (timed) report.add("spark_run_s", "s", runS)
    counters.foreach { c =>
      val s = c.snapshot()
      report.add("spark.segment_s", "s", runS / T)
      report.add("spark.jobs_per_segment", "count", s.jobs.toDouble / T)
      report.add("spark.stages_per_segment", "count", s.stages.toDouble / T)
      report.add("spark.tasks_per_segment", "count", s.tasks.toDouble / T)
      report.add("spark.job_ms_p50", "ms", Report.median(s.jobMs))
      report.add("spark.task_busy_share", "ratio",
        s.taskRunMs / (1000.0 * runS * Runtime.getRuntime.availableProcessors))
      report.add("spark.no_task_share", "ratio", 1 - s.taskUnionMs / (1000.0 * runS))
      report.add("spark.shuffle_mb_per_segment", "MB", s.shuffleBytes / 1e6 / T)
    }

    counters.foreach(_.reset())
    streamingPass(in, i, ts, want, tracer, timed)
    counters.foreach { c =>
      val s = c.snapshot()
      report.add("streaming.jobs_per_batch", "count", s.jobs.toDouble / T)
      for (d <- s.triggers) {
        val total = d.getOrElse("triggerExecution", Double.NaN)
        val add = d.getOrElse("addBatch", Double.NaN)
        report.add("streaming.trigger_ms", "ms", total)
        report.add("streaming.addbatch_ms", "ms", add)
        report.add("streaming.overhead_ms", "ms", total - add)
      }
      spark.sparkContext.removeSparkListener(c)
      spark.streams.removeListener(c.streaming)
    }

    if (timed && gapAttempted == 0) gapProbe(ts, want)
  }

  private def streamingPass(in: Input, i: Int, ts: Long, want: RunResult,
                            tracer: Option[Tracer], timed: Boolean): Unit = {
    val session = spark
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = session.sqlContext
    import session.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), in.query, ts)
    val sq = engine.start(source.toDS())
    var passS = 0.0
    var callsBefore = 0L
    val n = in.query.budgetPerSegment
    try {
      for ((batch, t) <- in.batches.zipWithIndex) report.op(s"streaming pass $i segment $t") { check =>
        def addAndWait(): Unit = { source.addData(batch); sq.processAllAvailable() }
        val s = secondsOf(maybeSpan(tracer, "streaming.batch")(addAndWait()))
        passS += s
        if (timed) report.add("batch_latency_s", "s", s)
        val got = engine.result.perSegment
        val calls = engine.result.oracleCalls - callsBefore
        callsBefore = engine.result.oracleCalls
        check(calls <= n, s"segment $t made $calls oracle calls, over its ORACLE LIMIT of $n")
        check(got.length == t + 1, s"${got.length} segments published, expected ${t + 1}")
        check(got.length == t + 1 && sameBits(Seq(got(t)), Seq(want.perSegment(t))),
          s"segment $t estimate ${got.lift(t)} differs from the local engine's ${want.perSegment(t)}")
        check(engine.latestEstimate.exists(e => sameBits(Seq(e), Seq(engine.result.finalEstimate))),
          "the published estimate is not the running estimate")
      }
    } finally sq.stop()
    if (timed) report.add("stream_pass_s", "s", passS)
    report.op(s"streaming pass $i result") { check =>
      check(engine.result.oracleCalls == want.oracleCalls,
        s"${engine.result.oracleCalls} oracle calls, local engine ${want.oracleCalls}")
    }
  }

  /** The stream with segment 2 missing. Its outcome is tallied apart from
    * the workload's operations; before segment 2 the estimates must equal
    * the full stream's.
    */
  private def gapProbe(ts: Long, want: RunResult): Unit = {
    gapAttempted += 1
    try {
      val r = SparkInQuest.run(gapDf, full.query, ts)
      val ok = r.perSegment.length >= GapSegment &&
        sameBits(r.perSegment.take(GapSegment).toSeq, want.perSegment.take(GapSegment).toSeq) &&
        r.oracleCalls <= N.toLong * T
      if (!ok) {
        gapFailed += 1
        Console.err.println(s"[perfbench] gap stream: estimates ${r.perSegment.mkString(",")} inconsistent with the full stream")
      }
    } catch {
      case e: Exception =>
        gapFailed += 1
        Console.err.println(s"[perfbench] gap stream failed: ${e.getClass.getSimpleName}: ${e.getMessage}")
    }
  }

  def coreRun(): CoreRun = {
    val i = nextPass
    nextPass += 1
    CoreRun(full.ds, full.query, trialSeed(i), s"pass/$i")
  }

  def endToEnd: (Double, Double) =
    (report.median("spark_run_s"), 1000 * report.median("stream_pass_s") / T)

  def namedTimings: Seq[String] = Seq("spark_run_s", "stream_pass_s")

  def record(): Seq[(String, String)] = {
    val ds = Datasets.generate("archie", Length, seed)
    val query = QueryConfig(AggFunc.Avg, usePredicate = true, Length / T, N)
    (0 until 8).map(i => s"pass/$i" -> Digests.run(new InQuest().run(ds, query, trialSeed(i))))
  }
}

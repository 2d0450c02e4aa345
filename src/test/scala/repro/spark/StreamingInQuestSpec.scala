package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.core._
import repro.data.StreamGen
import repro.testkit.SparkJobs

/** Structured Streaming integration: a MemoryStream source fed one
  * tumbling segment per micro-batch must reproduce the batch engine (and
  * therefore the local engine) exactly.
  */
class StreamingInQuestSpec extends SparkSpec {

  private val ds = StreamGen.videoLike("st", 5000, 0.5, 0.9, seed = 91)
  private val query = QueryConfig(AggFunc.Avg, usePredicate = true,
    segmentLength = 1000, budgetPerSegment = 50)

  private def records(seg: Range, from: StreamDataset = ds): Seq[StreamRecord] =
    seg.map(i => StreamRecord(i.toLong, from.proxy(i), from.statistic(i), from.predicate(i)))

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Feed `stream` one segment of `q` per micro-batch (over `partitions`
    * source partitions, or the default) and check every published
    * estimate against the local engine by raw bits. Returns each
    * micro-batch's Spark job count.
    */
  private def assertStreamsLikeLocal(stream: StreamDataset, seed: Long, partitions: Int = 0,
                                     q: QueryConfig = query): Seq[Int] = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = if (partitions > 0) MemoryStream[StreamRecord](partitions) else MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), q, trialSeed = seed)
    val sq = engine.start(source.toDS())
    try {
      val local = new InQuest().run(stream, q, seed)
      val jobs = stream.segments(q.segmentLength).zipWithIndex.map { case (seg, t) =>
        val (_, n) = SparkJobs.count(spark.sparkContext) {
          source.addData(records(seg, stream))
          sq.processAllAvailable()
        }
        val est = engine.result.perSegment
        assert(est.length == t + 1, s"expected ${t + 1} segments, saw ${est.length}")
        assert(bits(est(t)) == bits(local.perSegment(t)),
          s"segment $t: streaming ${est(t)} vs local ${local.perSegment(t)}")
        // the user-facing real-time estimate updates every micro-batch
        assert(engine.latestEstimate.exists(e => bits(e) == bits(engine.result.finalEstimate)))
        n
      }
      assert(bits(engine.result.finalEstimate) == bits(local.finalEstimate))
      assert(engine.result.oracleCalls == local.oracleCalls)
      jobs
    } finally sq.stop()
  }

  test("streaming run equals the local engine segment by segment") {
    assertStreamsLikeLocal(ds, seed = 3)
  }

  test("a non-integer statistic streams bit-identically at any partitioning") {
    val text = StreamGen.textLike("tx", 6000, 0.56, 0.79, baseDwell = 300, seed = 83)
    val q = query.copy(segmentLength = 1200, budgetPerSegment = 60)
    val truths = text.truthPerSegment(q.segmentLength, usePredicate = true)
    assert(truths.forall(_ != 0.0), s"every segment must hold matching records: ${truths.mkString(",")}")
    for (seed <- 1L to 3L; partitions <- Seq(0, 13)) assertStreamsLikeLocal(text, seed, partitions, q)
  }

  test("each micro-batch costs at most 2 Spark jobs") {
    val jobs = assertStreamsLikeLocal(ds, seed = 4, partitions = 4)
    assert(jobs.forall(_ <= 2), s"Spark jobs per micro-batch: ${jobs.mkString(",")}")
  }

  test("latest estimate is available in real time after the first batch") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 5)
    val sq = engine.start(source.toDS())
    try {
      assert(engine.latestEstimate.isEmpty)
      source.addData(records(0 until 1000))
      sq.processAllAvailable()
      val first = engine.latestEstimate
      assert(first.isDefined)
      source.addData(records(1000 until 2000))
      sq.processAllAvailable()
      assert(engine.latestEstimate.isDefined)
      assert(engine.result.perSegment.length == 2)
    } finally sq.stop()
  }

  test("empty micro-batches are ignored (no spurious segments)") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val source = MemoryStream[StreamRecord]
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 7)
    val sq = engine.start(source.toDS())
    try {
      source.addData(records(0 until 1000))
      sq.processAllAvailable()
      sq.processAllAvailable() // no new data → no new segment
      assert(engine.result.perSegment.length == 1)
    } finally sq.stop()
  }

  test("a micro-batch with a duplicate idx is rejected before it becomes a segment") {
    import spark.implicits._
    val engine = new StreamingInQuest(InQuestParams(), query, trialSeed = 7)
    val batch = (records(0 until 1000) :+ records(700 until 701).head).toDF()
    val e = intercept[IllegalArgumentException](engine.processBatch(batch))
    assert(e.getMessage.contains("idx 700 "), e.getMessage)
    assert(engine.result.perSegment.isEmpty && engine.latestEstimate.isEmpty)
  }
}

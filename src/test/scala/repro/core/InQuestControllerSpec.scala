package repro.core

import scala.collection.mutable.ArrayBuffer

import org.scalatest.funsuite.AnyFunSuite

/** The controller against a scripted data plane: no Spark, no dataset. */
class InQuestControllerSpec extends AnyFunSuite {

  private val query = QueryConfig(AggFunc.Avg, usePredicate = true, segmentLength = 1000, budgetPerSegment = 60)
  private val k = InQuestParams().k

  /** A window of `size` records spread evenly over the strata; every
    * drawn record matches with statistic `value`. `overdraw` extra
    * records are reported as sampled beyond the plan's counts.
    */
  private final class FakePlane(size: Long, value: Double = 1.0, overdraw: Int = 0) extends SegmentPlane {
    val draws = ArrayBuffer.empty[(Seq[Double], Seq[Int], Long, Int)]

    def quantiles(k: Int): Option[Array[Double]] =
      Option.when(size > 0)(Array.tabulate(k - 1)(j => (j + 1.0) / k))

    def sizes(boundaries: Array[Double]): Array[Long] = {
      val k = boundaries.length + 1
      Array.tabulate(k)(s => size / k + (if (s < size % k) 1 else 0))
    }

    def sample(drawBoundaries: Array[Double], counts: Array[Int], tag: Long,
               foldBy: Seq[Array[Double]]): Seq[Seq[StratumStats]] = {
      draws += ((drawBoundaries.toSeq, counts.toSeq, tag, foldBy.size))
      val drawn = sizes(drawBoundaries).zip(counts).map { case (s, c) => math.min(s, c.toLong) }.sum + overdraw
      foldBy.map { b =>
        val sz = sizes(b)
        sz.indices.map { s =>
          val m = (drawn / sz.length + (if (s == 0) drawn % sz.length else 0)).toInt
          StratumStats(sz(s), m, m, m * value, m * value * value)
        }
      }
    }
  }

  private def run(planes: Seq[FakePlane]): InQuestController = {
    val c = new InQuestController(InQuestParams(), query)
    planes.foreach(c.step)
    c
  }

  test("a plane that samples beyond the pilot's budget breaks the ORACLE LIMIT") {
    val e = intercept[IllegalArgumentException](run(Seq(new FakePlane(1000, overdraw = 1))))
    assert(e.getMessage.contains("oracle budget exceeded in segment 0"))
  }

  test("a plane that samples beyond a stratified plan's counts breaks the ORACLE LIMIT") {
    val e = intercept[IllegalArgumentException](
      run(Seq(new FakePlane(1000), new FakePlane(1000, overdraw = 1))))
    assert(e.getMessage.contains("oracle budget exceeded in segment 1"))
  }

  test("an empty window: K zero-size cells, estimate 0, no draw, histories kept, window index advances") {
    val a = new FakePlane(1000, 2.0)
    val gap = new FakePlane(0)
    val b = new FakePlane(900, 3.0)
    val withGap = run(Seq(a, gap, b))
    val b2 = new FakePlane(900, 3.0)
    val without = run(Seq(new FakePlane(1000, 2.0), b2))

    assert(gap.draws.isEmpty)
    assert(withGap.trace.cells(1) == Seq.fill(k)(StratumStats(0, 0, 0, 0.0, 0.0)))
    assert(withGap.result.perSegment.toSeq == Seq(2.0, 0.0, 3.0))
    assert(withGap.result.oracleCalls == without.result.oracleCalls)
    assert(withGap.result.finalEstimate == without.result.finalEstimate)
    assert(withGap.trace.rawAllocations.map(_.toSeq) == without.trace.rawAllocations.map(_.toSeq))
    // Same plan after the gap as without it; only the tag follows the window.
    val (bounds, counts, tag, _) = b.draws.head
    val (bounds2, counts2, tag2, _) = b2.draws.head
    assert(bounds == bounds2 && counts == counts2)
    assert(tag == InQuest.SampleTag + 3 && tag2 == InQuest.SampleTag + 2)
  }

  test("a leading empty window defers the pilot to the first non-empty window") {
    val first = new FakePlane(1000, 2.0)
    val next = new FakePlane(1000, 3.0)
    val c = run(Seq(new FakePlane(0), first, next))
    val (bounds, counts, tag, folds) = first.draws.head
    assert(bounds.isEmpty && counts == Seq(query.budgetPerSegment))
    assert(tag == InQuest.SampleTag && folds == 2)
    assert(c.trace.cells.map(_.size) == Seq(k, 1, k))
    assert(c.result.perSegment.toSeq == Seq(0.0, 2.0, 3.0))
    assert(next.draws.head._3 == InQuest.SampleTag + 3)
  }

  test("no windows give an empty result") {
    val r = run(Nil).result
    assert(r.perSegment.isEmpty && r.finalEstimate == 0.0 && r.oracleCalls == 0)
  }
}

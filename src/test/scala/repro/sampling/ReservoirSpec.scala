package repro.sampling

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Checks.forAllSampled
import repro.util.{Rng, Stats}
import scala.collection.immutable.ArraySeq

class ReservoirSpec extends AnyFunSuite {

  /** The boxed definition `bottomN` had before its primitive heap: a
    * bounded `PriorityQueue` of `(u, idx)` tuples. Kept as the reference
    * the primitive kernel must match exactly.
    */
  private def referenceBottomN(idxs: Seq[Long], n: Int, seed: Long, tag: Long): Vector[Long] =
    if (n == 0) Vector.empty
    else if (idxs.size <= n) idxs.sorted.toVector
    else {
      val ord = Ordering.by[(Double, Long), (Double, Long)](identity)
      val heap = scala.collection.mutable.PriorityQueue.empty[(Double, Long)](ord)
      idxs.foreach { idx =>
        val u = Rng.uniform(seed, idx, tag)
        if (heap.size < n) heap.enqueue((u, idx))
        else if (ord.lt((u, idx), heap.head)) { heap.dequeue(); heap.enqueue((u, idx)) }
      }
      heap.iterator.map(_._2).toVector.sorted
    }

  test("bottomN returns n distinct indices in ascending order") {
    forAllSampled(Gen.chooseNum(1L, 1000L), n = 50) { seed =>
      val s = Reservoir.bottomN(0L until 500L, 50, seed)
      assert(s.size == 50)
      assert(s.distinct.size == 50)
      assert(s == s.sorted)
      assert(s.forall(i => i >= 0 && i < 500))
    }
  }

  test("bottomN with n >= population returns everything") {
    assert(Reservoir.bottomN(Seq(5L, 3L, 9L), 10, 1) == Vector(3L, 5L, 9L))
  }

  test("bottomN with n=0 is empty") {
    assert(Reservoir.bottomN(0L until 100L, 0, 1).isEmpty)
  }

  test("bottomN is deterministic in (seed, tag)") {
    val a = Reservoir.bottomN(0L until 1000L, 30, 5, tag = 2)
    val b = Reservoir.bottomN(0L until 1000L, 30, 5, tag = 2)
    assert(a == b)
    assert(a != Reservoir.bottomN(0L until 1000L, 30, 5, tag = 3))
    assert(a != Reservoir.bottomN(0L until 1000L, 30, 6, tag = 2))
  }

  test("bottomN is order-insensitive in its input index collection") {
    val idxs = (0L until 300L)
    val a = Reservoir.bottomN(idxs, 25, 9)
    val b = Reservoir.bottomN(scala.util.Random.shuffle(idxs.toVector), 25, 9)
    assert(a == b)
  }

  test("bottomN inclusion probability is uniform") {
    val n = 100; val k = 10; val trials = 20000
    val counts = new Array[Int](n)
    (0 until trials).foreach { t =>
      Reservoir.bottomN(0L until n.toLong, k, t.toLong).foreach(i => counts(i.toInt) += 1)
    }
    val expected = trials * k.toDouble / n
    counts.foreach(c => assert(math.abs(c - expected) < 5 * math.sqrt(expected * 0.9)))
  }

  test("bottomN sample mean is an unbiased estimate of the population mean") {
    val pop = (0 until 1000).map(i => repro.util.Rng.uniform(99, i.toLong) * 10)
    val means = (0 until 2000).map { t =>
      Stats.mean(Reservoir.bottomN(0L until 1000L, 20, t.toLong).map(i => pop(i.toInt)))
    }
    assert(math.abs(Stats.mean(means) - Stats.mean(pop)) < 0.05)
  }

  test("negative sample sizes are rejected") {
    assertThrows[IllegalArgumentException](Reservoir.bottomN(0L until 10L, -1, 1))
  }

  test("bottomN equals the boxed reference for any index set, input order and Seq type") {
    val gen = for {
      idxs <- Gen.listOf(Gen.chooseNum(0L, 1000000L)).map(_.distinct)
      n <- Gen.chooseNum(0, idxs.size + 2)
      seed <- Gen.long
      tag <- Gen.chooseNum(0L, 1000L)
      shuffleSeed <- Gen.long
    } yield (idxs, n, seed, tag, shuffleSeed)
    forAllSampled(gen, n = 300) { case (idxs, n, seed, tag, shuffleSeed) =>
      val expected = referenceBottomN(idxs, n, seed, tag)
      val shuffled = new scala.util.Random(shuffleSeed).shuffle(idxs)
      val primitive = shuffled.toArray
      for (in <- Seq(idxs, shuffled.toVector, new ArraySeq.ofLong(primitive), new ArraySeq.ofLong(idxs.sorted.toArray)))
        assert(Reservoir.bottomN(in, n, seed, tag) == expected, s"n=$n input ${in.getClass.getSimpleName}")
      assert(primitive.toSeq == shuffled, "bottomN must not reorder its input")
    }
  }
}

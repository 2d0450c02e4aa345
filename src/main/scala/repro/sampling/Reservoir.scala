package repro.sampling

import repro.util.Rng
import scala.collection.immutable.ArraySeq

/** Uniform-without-replacement sampling from a finished segment.
  *
  * InQuest needs, per segment × stratum, a sample "uniform in time" drawn
  * without knowing the stratum's size in advance (paper §3.1, reservoir
  * sampling). Over a *finished* segment a size-n reservoir is distributed
  * exactly as a uniform sample without replacement, so this reproduction
  * draws it as "the n records with the smallest `Rng.uniform(seed, idx)`"
  * — a pure function of (seed, idx) that the local and Catalyst engines
  * compute identically (DESIGN.md §6).
  */
object Reservoir {

  /** Deterministic uniform sample without replacement: the `n` indices of
    * `idxs` with the smallest hash-uniform, ties broken by index. Returns
    * sampled indices in ascending (stream) order.
    *
    * Both engines use this; `Rng.uniform(seed, idx, tag)` makes the chosen
    * set a pure function of the inputs. The selection keeps a bounded
    * max-heap of `(u, idx)` pairs on two primitive arrays, ordered
    * lexicographically with `u` compared by `Double.compare`. An
    * `ArraySeq.ofLong` input (a stratum from `Stratification.split`) is
    * read in place; any other `Seq` is copied to a `long[]` first.
    */
  def bottomN(idxs: Seq[Long], n: Int, seed: Long, tag: Long = 0L): Vector[Long] = {
    require(n >= 0, s"sample size must be >= 0, got $n")
    if (n == 0) Vector.empty
    else {
      val in = idxs match {
        case a: ArraySeq.ofLong => a.unsafeArray
        case _                  => idxs.toArray
      }
      val out =
        if (in.length <= n) in.clone()
        else {
          val heap = new MaxHeap(n)
          var j = 0
          while (j < in.length) {
            heap.offer(Rng.uniform(seed, in(j), tag), in(j))
            j += 1
          }
          heap.idx
        }
      java.util.Arrays.sort(out)
      out.toVector
    }
  }

  /** The `capacity` smallest `(u, idx)` pairs offered so far; the largest
    * kept pair sits at the root, slot 0.
    */
  private final class MaxHeap(capacity: Int) {
    private val u = new Array[Double](capacity)
    val idx = new Array[Long](capacity)
    private var size = 0

    private def less(u1: Double, i1: Long, u2: Double, i2: Long): Boolean = {
      val c = java.lang.Double.compare(u1, u2)
      c < 0 || (c == 0 && i1 < i2)
    }

    def offer(key: Double, i: Long): Unit =
      if (size < capacity) {
        var pos = size
        size += 1
        while (pos > 0 && less(u((pos - 1) >>> 1), idx((pos - 1) >>> 1), key, i)) {
          val parent = (pos - 1) >>> 1
          u(pos) = u(parent); idx(pos) = idx(parent)
          pos = parent
        }
        u(pos) = key; idx(pos) = i
      } else if (less(key, i, u(0), idx(0))) {
        var pos = 0
        var child = 1
        while (child < size) {
          if (child + 1 < size && less(u(child), idx(child), u(child + 1), idx(child + 1))) child += 1
          if (less(key, i, u(child), idx(child))) {
            u(pos) = u(child); idx(pos) = idx(child)
            pos = child
            child = 2 * pos + 1
          } else child = size
        }
        u(pos) = key; idx(pos) = i
      }
  }
}

package repro.core

import repro.util.Stats
import scala.collection.immutable.ArraySeq

/** GetStrata (Algorithm 2): proxy-quantile stratification smoothed by an
  * EWMA over the segment history.
  */
object Stratification {

  /** Boundaries splitting `proxies` into K equal-count strata (the K−1
    * interior quantiles) — `StratifyByQuantile(P(D_{t−1}), K)`.
    */
  def quantileStrata(proxies: Seq[Double], k: Int): Array[Double] =
    Stats.quantileBoundaries(proxies, k)

  /** `Ŝ_t = EWMA({S_1 … S_{t−1}}, α)` — element-wise over the boundary
    * vectors, oldest first. Boundaries stay sorted because each input
    * vector is sorted and EWMA is a convex combination.
    */
  def smooth(history: Seq[Array[Double]], alpha: Double): Array[Double] =
    Stats.ewmaVec(history, alpha)

  /** Stratum of a record given interior boundaries (half-open intervals). */
  def assign(proxy: Double, boundaries: Array[Double]): Int =
    Stats.stratumOf(proxy, boundaries)

  /** Partition a segment's record indices into K strata by proxy score.
    * Each stratum lists its indices in segment order, on a primitive
    * `long[]`.
    */
  def split(ds: StreamDataset, segment: Range, boundaries: Array[Double]): Array[ArraySeq.ofLong] =
    split(ds.proxy, segment.start, segment.end, boundaries)(_.toLong)

  /** Partition positions `from until until` of `proxy` into K strata by
    * proxy score, listing the record at position p as `idxAt(p)`. Each
    * stratum keeps position order, on a primitive `long[]`.
    */
  def split(proxy: Array[Double], from: Int, until: Int, boundaries: Array[Double])(
      idxAt: Int => Long): Array[ArraySeq.ofLong] = {
    val stratum = new Array[Int](until - from)
    val sizes = new Array[Int](boundaries.length + 1)
    var j = 0
    while (j < stratum.length) {
      stratum(j) = assign(proxy(from + j), boundaries)
      sizes(stratum(j)) += 1
      j += 1
    }
    val out = sizes.map(n => new Array[Long](n))
    val filled = new Array[Int](sizes.length)
    j = 0
    while (j < stratum.length) {
      val s = stratum(j)
      out(s)(filled(s)) = idxAt(from + j)
      filled(s) += 1
      j += 1
    }
    out.map(new ArraySeq.ofLong(_))
  }
}

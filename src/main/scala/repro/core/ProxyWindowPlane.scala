package repro.core

import repro.sampling.Reservoir
import scala.collection.immutable.ArraySeq

/** A [[SegmentPlane]] over one window whose proxy scores are in memory:
  * positions `from until until` of `proxy`, the record at position p
  * having idx `idxAt(p)`, ascending in p.
  *
  * Every engine's per-window decisions run here, on the core kernels: the
  * quantiles (`Stratification.quantileStrata`), the split
  * (`Stratification.split`), the per-stratum draw (`Reservoir.bottomN`)
  * and the fold of the draw into cells (`StratumStats.fromSamples`). An
  * engine says only where a record's idx and proxy are (`proxyOf` maps a
  * window's idx to its proxy) and how the oracle is read for one draw:
  * `observe` returns, per drawn record and in the order given, (f(x),
  * whether the record counts as matching). The last split is kept, so
  * that sizing and drawing under the same boundaries split the window
  * once.
  */
final class ProxyWindowPlane(proxy: Array[Double], from: Int, until: Int, trialSeed: Long)(
    idxAt: Int => Long, proxyOf: Long => Double, observe: Array[Long] => Array[(Double, Boolean)])
    extends SegmentPlane {

  private var lastSplit: (Array[Double], Array[ArraySeq.ofLong]) = (null, null)

  private def strata(boundaries: Array[Double]): Array[ArraySeq.ofLong] = {
    if (lastSplit._1 ne boundaries)
      lastSplit = (boundaries, Stratification.split(proxy, from, until, boundaries)(idxAt))
    lastSplit._2
  }

  def quantiles(k: Int): Option[Array[Double]] =
    Option.when(until > from)(
      Stratification.quantileStrata(ArraySeq.unsafeWrapArray(proxy).slice(from, until), k))

  def sizes(boundaries: Array[Double]): Array[Long] = strata(boundaries).map(_.size.toLong)

  /** The draw lists each stratum's bottom-n in ascending idx, strata in
    * order; each cell folds its stratum's records in that draw order.
    */
  def sample(drawBoundaries: Array[Double], counts: Array[Int], tag: Long,
             foldBy: Seq[Array[Double]]): Seq[Seq[StratumStats]] = {
    val drawn = strata(drawBoundaries).iterator.zip(counts).flatMap { case (idxs, c) =>
      Reservoir.bottomN(idxs, c, trialSeed, tag)
    }.toArray
    val obs = observe(drawn)
    foldBy.map { b =>
      val stratum = drawn.map(i => Stratification.assign(proxyOf(i), b))
      val sz = sizes(b)
      sz.indices.map(s => StratumStats.fromSamples(sz(s), obs.indices.filter(stratum(_) == s).map(obs).toVector))
    }
  }
}

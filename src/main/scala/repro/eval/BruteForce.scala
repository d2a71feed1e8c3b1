package repro.eval

import repro.core.{TokenDistances, Tokenizer}
import repro.names.Account

/** Driver-side exact all-pairs NSLD self-join — the ground truth against
  * which TSJ (fuzzy mode must match it exactly) and HMJ are tested, and the
  * recall denominator for the approximation studies.
  */
object BruteForce {

  /** All pairs with `NSLD <= t`, as `(id1, id2, nsld)` with `id1 < id2`.
    * Exact NSLD on every pair, with no filter, so that the joins' filters
    * are checked against it rather than shared with it. O(n²) —
    * test/bench scale only.
    */
  def nsldSelfJoin(accounts: Seq[Account], t: Double): Set[(Long, Long, Double)] = {
    val recs = accounts
      .map(a => (a.id, Tokenizer.tokenize(a.name)))
      .filter(_._2.nonEmpty)
      .toIndexedSeq
    val out = Set.newBuilder[(Long, Long, Double)]
    var i = 0
    while (i < recs.length) {
      val (ida, ta) = recs(i)
      var j = i + 1
      while (j < recs.length) {
        val (idb, tb) = recs(j)
        val d = TokenDistances.nsld(ta, tb)
        if (d <= t) out += ((math.min(ida, idb), math.max(ida, idb), d))
        j += 1
      }
      i += 1
    }
    out.result()
  }
}

package repro.core

/** Normalized Levenshtein Distance (Def. 2, after Li & Liu 2007) and the
  * paper's threshold-conversion lemmas used by the join machinery.
  *
  * `NLD(x, y) = 2·LD(x, y) / (|x| + |y| + LD(x, y))`, a metric in [0, 1].
  *
  * Every integer bound below is defined by the verifier's own predicate
  * `fromLd(...) <= t`, not by rounding a closed form: `floor`/`ceil` of a
  * double land on the wrong side when the exact value is an integer (e.g.
  * `2·0.24·11/1.76` evaluates to 2.9999999999999996), and a filter that is
  * one too strict loses pairs the verifier accepts. The closed forms of
  * Lemmas 8 and 9 only seed the search.
  */
object Nld {

  /** Exact NLD. Two empty strings are at distance 0. */
  def nld(x: String, y: String): Double = {
    if (x.isEmpty && y.isEmpty) return 0.0
    val ld = Levenshtein.distance(x, y)
    2.0 * ld / (x.length + y.length + ld)
  }

  /** NLD computed from a known LD value. */
  def fromLd(lenX: Int, lenY: Int, ld: Int): Double =
    if (lenX == 0 && lenY == 0) 0.0 else 2.0 * ld / (lenX + lenY + ld)

  /** Largest `k` in `[0, hi]` with `ok(k)`, for `ok` true up to some `k`
    * and false after it and `ok(0)` true; the search starts at `estimate`.
    */
  private def largest(estimate: Double, hi: Int)(ok: Int => Boolean): Int = {
    var k = math.max(0, math.min(hi, math.floor(estimate).toInt))
    while (k > 0 && !ok(k)) k -= 1
    while (k < hi && ok(k + 1)) k += 1
    k
  }

  /** Lemma 8: largest LD compatible with `NLD <= t` for the given lengths,
    * i.e. the largest `k <= max(|x|, |y|)` with `fromLd(|x|, |y|, k) <= t`.
    *
    * Lemma 8 states it in closed form: with `|x| <= |y|`,
    * `LD <= floor(2·t·|y| / (2−t))`, and if `|x| < |y|` also
    * `LD <= floor(t·|x| / (1−t))`. The bound here is exactly
    * `t·(|x|+|y|) / (2−t)` over the integers: the first closed form relaxes
    * it, and the second does too wherever Lemma 9's length condition holds
    * (elsewhere no LD `>= |y| − |x|` is admissible at all).
    */
  def maxLdFor(lenX: Int, lenY: Int, t: Double): Int = {
    require(t >= 0 && t < 1, s"threshold out of range: $t")
    largest(t * (lenX + lenY) / (2.0 - t), math.max(lenX, lenY))(k => fromLd(lenX, lenY, k) <= t)
  }

  /** Lemma 8's segment-count bound in terms of the longer length only: the
    * largest `U <= L` with `fromLd(L, L, U) <= t` (`U(L) = floor(2·t·L / (2−t))`
    * over the integers). A shorter partner only raises NLD at the same LD,
    * so `U` bounds the LD of every admissible pair whose longer side has
    * length `L`. PassJoin partitions the longer (indexed) string into
    * `U + 1` segments.
    */
  def maxLdForLongerLen(longerLen: Int, t: Double): Int = {
    require(t >= 0 && t < 1, s"threshold out of range: $t")
    largest(2.0 * t * longerLen / (2.0 - t), longerLen)(k => fromLd(longerLen, longerLen, k) <= t)
  }

  /** Lemma 9 length condition: with `|x| <= |y|` and `NLD(x,y) <= t`, the
    * shorter length is at least the smallest `s` with
    * `fromLd(s, |y|, |y|−s) <= t` (`ceil((1−t)·|y|)` over the integers),
    * since `LD >= |y| − |x|`.
    */
  def minShorterLen(longerLen: Int, t: Double): Int =
    longerLen - largest(t * longerLen, longerLen)(d => fromLd(longerLen - d, longerLen, d) <= t)

  /** Largest longer-length `|y|` a shorter string of length `lenX` may pair
    * with under `NLD <= t` (inverse of Lemma 9): all `|y|` with
    * `minShorterLen(|y|, t) <= lenX`.
    */
  def maxLongerLen(lenX: Int, t: Double): Int = {
    var hi = if (t >= 1.0) Int.MaxValue else math.floor(lenX / (1.0 - t)).toInt + 1
    while (minShorterLen(hi, t) > lenX) hi -= 1
    hi
  }

  /** Lemma 10: a strict lower bound on LD implied by `NLD > t`.
    * If `|x| <= |y|`: `LD > floor(t·|y| / (2−t))`; else
    * `LD > floor(2·t·|y| / (2−t))` (`|y|` the shorter).
    */
  def ldLowerBoundExclusive(lenX: Int, lenY: Int, t: Double): Int = {
    val (shorter, longer) = (math.min(lenX, lenY), math.max(lenX, lenY))
    if (lenX == lenY || longer == lenY)
      math.floor(t * longer / (2.0 - t)).toInt
    else
      math.floor(2.0 * t * shorter / (2.0 - t)).toInt
  }

  /** True iff `NLD(x, y) <= t`, using the banded LD for early abandon. */
  def within(x: String, y: String, t: Double): Boolean = {
    val u = maxLdFor(x.length, y.length, t)
    val ld = Levenshtein.bounded(x, y, u)
    ld <= u && fromLd(x.length, y.length, ld) <= t
  }
}

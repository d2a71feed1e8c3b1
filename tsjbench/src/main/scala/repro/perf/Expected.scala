package repro.perf

/** Results of the seed commit at the default seed, which every later run at
  * that seed must reproduce.
  */
object Expected {

  /** Order-independent digest of a set of `(id1, id2)` pairs: the count and
    * the wrapping sum of a 64-bit mix of each pair.
    */
  def digest(pairs: Iterator[(Long, Long)]): (Long, Long) = {
    var n = 0L; var h = 0L
    pairs.foreach { case (i, j) => n += 1; h += mix((i << 32) ^ j) }
    (n, h)
  }

  private def mix(x0: Long): Long = { // SplitMix64 finaliser
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Join workload -> (pair count, digest hash). */
  val joinDigest: Map[String, (Long, Long)] = Map(
    "tsj-default" -> (1537L, 0x3e951c4ed2498644L),
    "tsj-wide" -> (8958L, 0xe6fe382bf9a94507L))

  /** Exact and greedy NSLD sums over the `nsld-score` pairs. */
  val scoreChecksum: (Double, Double) = (209126.658934344, 210884.344300440)

  final case class Counts(allowedTokens: Long, sharedDistinct: Long,
                          similarTokenPairs: Long, resultPairs: Long)

  /** Counts the traced run must reproduce at the default seed. */
  val selfTests: Map[String, Counts] = Map(
    "tsj-default" -> Counts(28835, 1470339, 2283, 1537),
    "tsj-wide" -> Counts(28806, 262782, 53215, 8958))
}

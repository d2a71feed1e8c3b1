package repro.tsj

import scala.collection.mutable
import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{TokenDistances, Tokenizer}
import repro.passjoin.TokenNldJoin

/** Tokenized-String Joiner (Sec. III): the paper's generate–filter–verify
  * NSLD self-join framework, expressed as a Catalyst DataFrame pipeline.
  *
  *  1. tokenize and build the inverted token index, dropping tokens shared by
  *     more than `M` tokenized strings (Sec. III-G.2);
  *  2. generate *shared-token* candidates (Sec. III-C, an equi-self-join of
  *     the inverted index) and, under fuzzy token matching, *similar-token*
  *     candidates (Sec. III-D: Theorem 3 reduces them to an NLD self-join of
  *     the distinct-token space, run with [[TokenNldJoin]]);
  *  3. de-duplicate candidates with either *grouping-on-both-strings* or
  *     *grouping-on-one-string* (Sec. III-G.3, with the hash-balanced
  *     key-choice rule), applying the aggregate-length filter (Lemma 6) and
  *     the token-length-histogram lower-bound filter (Sec. III-E.2);
  *  4. verify by computing SLD exactly (Hungarian) or with the
  *     greedy-token-aligning approximation (Sec. III-G.5).
  */
/** A tokenized record: id, token multiset, aggregate token length L.
  * Top-level so Catalyst codegen can construct it (janino cannot instantiate
  * object-nested case classes and would fall back to interpreted mode).
  */
private[tsj] final case class TsjRec(id: Long, tokens: Seq[String], aggLen: Int)

object Tsj {

  /** Candidate generation mode (Sec. III-G.4). */
  sealed trait TokenMatching
  /** Shared-token + similar-token generation — exact recall. */
  case object FuzzyTokenMatching extends TokenMatching
  /** Shared-token only — the exact-token-matching approximation. */
  case object ExactTokenMatching extends TokenMatching

  /** SLD computation used in verification (Sec. III-F / III-G.5). */
  sealed trait Aligning
  case object HungarianAligning extends Aligning
  case object GreedyAligning extends Aligning

  /** Candidate de-duplication strategy (Sec. III-G.3). */
  sealed trait DedupStrategy
  case object GroupingOnOneString extends DedupStrategy
  case object GroupingOnBothStrings extends DedupStrategy

  /** TSJ knobs. `t` is the NSLD threshold, `maxTokenFreq` is M. */
  final case class TsjConfig(
      t: Double,
      maxTokenFreq: Long = 1000L,
      matching: TokenMatching = FuzzyTokenMatching,
      aligning: Aligning = HungarianAligning,
      dedup: DedupStrategy = GroupingOnOneString) {
    require(t > 0 && t <= 0.5, s"NSLD threshold must be in (0, 0.5], got $t")
    require(maxTokenFreq >= 1, "maxTokenFreq must be positive")
  }

  /** NSLD self-join of `accounts` (`id: Long`, `name: String`).
    * Returns `(id1, id2, nsld)` with `id1 < id2` and `nsld <= cfg.t`.
    */
  def selfJoin(spark: SparkSession, accounts: DataFrame, cfg: TsjConfig): DataFrame = {
    import spark.implicits._

    val records: Dataset[TsjRec] = accounts
      .select($"id".cast("long"), $"name".cast("string"))
      .as[(Long, String)]
      .map { case (id, name) =>
        val toks = Tokenizer.tokenize(name)
        TsjRec(id, toks, Tokenizer.aggLength(toks))
      }
      .filter(_.tokens.nonEmpty)

    // Inverted index token -> string id (one posting per distinct token of a
    // string), with the max-frequency cutoff M applied to both generation
    // phases.
    val inv = records
      .flatMap(r => r.tokens.distinct.map(tk => (tk, r.id)))
      .toDF("token", "id")
    val allowedTokens = inv.groupBy("token")
      .agg(count(lit(1)).as("freq"))
      .where($"freq" <= cfg.maxTokenFreq)
      .select("token")
    val invOk = inv.join(allowedTokens, "token")

    // Shared-token candidates (Sec. III-C): group the inverted index by
    // token — a shuffle equi-join in DataFrame terms.
    val shared = invOk.toDF("token", "ida")
      .join(invOk.toDF("token", "idb"), "token")
      .where($"ida" < $"idb")
      .select($"ida".as("id1"), $"idb".as("id2"))

    // Similar-token candidates (Sec. III-D): NLD-join the distinct-token
    // space, then map similar token pairs back through the inverted index.
    val candidates = cfg.matching match {
      case ExactTokenMatching => shared
      case FuzzyTokenMatching =>
        val simTok = TokenNldJoin.selfJoin(spark, allowedTokens, cfg.t)
        val sim = simTok.select($"t1", $"t2")
          .join(invOk.toDF("t1", "ida"), "t1")
          .join(invOk.toDF("t2", "idb"), "t2")
          .where($"ida" =!= $"idb")
          .select(least($"ida", $"idb").as("id1"), greatest($"ida", $"idb").as("id2"))
        shared.union(sim)
    }

    val recsDf = records.toDF("id", "tokens", "aggLen")

    cfg.dedup match {
      case GroupingOnBothStrings =>
        // One worker per candidate pair: shuffle-group on the pair itself.
        candidates.distinct()
          .join(recsDf.select($"id".as("id1"), $"tokens".as("toksA"), $"aggLen".as("lenA")), "id1")
          .join(recsDf.select($"id".as("id2"), $"tokens".as("toksB"), $"aggLen".as("lenB")), "id2")
          .select($"id1", $"toksA", $"lenA", $"id2", $"toksB", $"lenB")
          .as[(Long, Seq[String], Int, Long, Seq[String], Int)]
          .flatMap { case (ida, toksA, lenA, idb, toksB, lenB) =>
            verify(ida, toksA, lenA, idb, toksB, lenB, cfg)
          }
          .toDF("id1", "id2", "nsld")

      case GroupingOnOneString =>
        // One worker per string: each reducer holds one key string and
        // de-duplicates + verifies all its candidate partners with a hash
        // set (Sec. III-G.3, hash-balanced key choice).
        val kv = candidates.as[(Long, Long)]
          .map { case (i, j) => chooseKeyValue(i, j) }
          .toDF("k", "v")
        kv
          .join(recsDf.select($"id".as("v"), $"tokens".as("vToks"), $"aggLen".as("vLen")), "v")
          .join(recsDf.select($"id".as("k"), $"tokens".as("kToks"), $"aggLen".as("kLen")), "k")
          .select($"k", $"kToks", $"kLen", $"v", $"vToks", $"vLen")
          .as[(Long, Seq[String], Int, Long, Seq[String], Int)]
          .groupByKey(_._1)
          .flatMapGroups { (_, rows) =>
            val seen = mutable.HashSet.empty[Long]
            rows.flatMap { case (k, kToks, kLen, v, vToks, vLen) =>
              if (seen.add(v)) verify(k, kToks, kLen, v, vToks, vLen, cfg)
              else None
            }
          }
          .toDF("id1", "id2", "nsld")
    }
  }

  /** The paper's load-balancing key-choice rule: `τ` becomes the key iff
    * `int(HASH(τ) < HASH(v)) == (HASH(τ) + HASH(v)) % 2`, for a fingerprint
    * hash — splitting each string's candidates roughly in half between the
    * cases where it serves as key and as value.
    */
  private[tsj] def chooseKeyValue(i: Long, j: Long): (Long, Long) = {
    val hi = MurmurHash3.stringHash(i.toString) & 0x7fffffff
    val hj = MurmurHash3.stringHash(j.toString) & 0x7fffffff
    val lt = if (hi < hj) 1 else 0
    val parity = ((hi.toLong + hj.toLong) % 2L).toInt
    if (lt == parity) (i, j) else (j, i)
  }

  /** Filters (Sec. III-E) + final verification (Sec. III-F) of one pair. */
  private def verify(
      ida: Long, toksA: Seq[String], lenA: Int,
      idb: Long, toksB: Seq[String], lenB: Int,
      cfg: TsjConfig): Option[(Long, Long, Double)] = {
    val t = cfg.t
    // Lemma 6 (SLD >= |L(x) − L(y)|), then the token-length histogram bound.
    if (TokenDistances.nsldExceeds(lenA, lenB, math.abs(lenA - lenB), t)) return None
    if (TokenDistances.nsldExceeds(lenA, lenB,
          TokenDistances.sldLengthLowerBound(toksA.map(_.length), toksB.map(_.length)), t))
      return None
    val s = cfg.aligning match {
      case HungarianAligning => TokenDistances.sld(toksA, toksB)
      case GreedyAligning    => TokenDistances.sldGreedy(toksA, toksB)
    }
    val d = TokenDistances.nsldFromSld(lenA, lenB, s)
    if (d <= t) Some((math.min(ida, idb), math.max(ida, idb), d)) else None
  }
}

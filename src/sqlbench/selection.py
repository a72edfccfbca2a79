"""Exemplar selection for few-shot prompting and corpus construction.

Strategies: uniform random, question similarity, and dual similarity, which
ranks candidates by how close their gold SQL skeleton is to a draft SQL for
the target, breaking ties by question similarity. DAIL-SQL (Gao et al. 2023,
arXiv 2308.15363) orders by question similarity instead, and gives priority
to the candidates whose skeleton similarity passes a threshold; dual
similarity here has no threshold. Questions and skeletons are embedded as
hashed character-trigram frequency vectors, deterministic across runs and
platforms; a pool's vectors are kept as sparse rows in a ``SimilarityIndex``.
"""

from __future__ import annotations

import random
import re
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .datasets import DatabaseSchema, ExampleTriple
from .sqlkit import SqlParseError, parse_sql

RANDOM = "random"
QUESTION_SIMILARITY = "question-similarity"
DUAL_SIMILARITY = "dual-similarity"
STRATEGIES = (RANDOM, QUESTION_SIMILARITY, DUAL_SIMILARITY)

EMBED_DIM = 4096
# texts embedded at a time. A chunk's working arrays, int32 code points and
# int16 buckets per gram, set the build's high-water mark: over 9,400
# BIRD-style questions (a 2.7 MB index), a predict run's peak was 55.5 MB at
# 512 rows, 54.3 MB at 256 and 59.1 MB at 1024, and a warm build took 26.8,
# 27.0 and 26.1 ms. A chunk's local rows stay below it, so a (row, bucket)
# key stays under 2**21 and fits int32
_CHUNK_ROWS = 512
# a chunk keeps the positions of its repeated pairs while at most 1 pair in
# this many repeats, as in questions (4 % over 9,400 BIRD-style ones); past
# that, as in SQL skeletons (32 %), one multiply over every pair is faster
_REPEATS_SPARSE = 8
# normalized text holds no tab: tabs separate texts and pad short grams
_TAB = ord("\t")
_SHIFT = 1 << 21  # above every code point: a gram code packs three 21-bit fields
_ASCII = 128


class _Buckets(dict):
    """Gram code -> hash bucket, the CRC-32 of the gram's UTF-8 bytes modulo
    ``EMBED_DIM``, for the grams that ``_gram_buckets`` cannot read from its
    tables."""

    def __missing__(self, code: int) -> int:
        points = (code // _SHIFT // _SHIFT, code // _SHIFT % _SHIFT, code % _SHIFT)
        gram = "".join(chr(point) for point in points if point != _TAB)
        bucket = self[code] = zlib.crc32(gram.encode("utf-8")) % EMBED_DIM
        return bucket


def _crc_table(position: int) -> np.ndarray:
    """Each ASCII byte's term in the bucket of a 3-byte gram that holds it at
    ``position``. Over messages of one length CRC-32 is affine, so the CRC of
    ``a b c`` is ``crc(a 0 0) ^ crc(0 b 0) ^ crc(0 0 c)``: each term carries
    the constant part once, and three of them XOR to one. ``EMBED_DIM`` is a
    power of two, so its modulus keeps the low bits of each term."""
    gram = bytearray(3)
    table = np.empty(_ASCII, dtype=np.int16)
    for byte in range(_ASCII):
        gram[position] = byte
        table[byte] = zlib.crc32(gram) % EMBED_DIM
    return table


_T0, _T1, _T2 = (_crc_table(position) for position in range(3))


def _gram_buckets(texts: list[str], bucket: _Buckets) -> tuple[np.ndarray, np.ndarray]:
    """Each text's grams as int16 buckets, with the int32 row of each gram. A
    text is lower-cased and its whitespace runs collapsed to single spaces;
    its grams are its character trigrams, or the whole text, padded with tabs
    to three code points, when it is one or two characters long. A trigram of
    ASCII code points is three bytes of UTF-8, its bucket ``_T0[a] ^ _T1[b] ^
    _T2[c]``. Any other gram, one with a code point past ASCII or a short
    text's, is looked up in ``bucket`` once per distinct gram of the chunk,
    and ``bucket`` hashes it once per build."""
    normalized = [" ".join(text.lower().split()) for text in texts]
    lengths = np.fromiter(map(len, normalized), dtype=np.int32, count=len(normalized))
    rows = np.repeat(np.arange(len(texts), dtype=np.int32),
                     np.maximum(lengths - 2, np.minimum(lengths, 1)))
    joined = "\t" + "\t\t".join(normalized) + "\t\t"
    points = np.frombuffer(joined.encode("utf-32-le"), dtype="<i4")
    before, first, second, third = points[:-3], points[1:-2], points[2:-1], points[3:]
    # a gram starts on a character and ends on one, unless it is a whole short text
    valid = (first != _TAB) & ((third != _TAB) | (before == _TAB))
    buckets = (_T0.take(first, mode="clip") ^ _T1.take(second, mode="clip")
               ^ _T2.take(third, mode="clip"))
    # looked up instead: a gram with a code point past ASCII, which read its
    # tables' last entries, and a short text's, which ends on a tab
    wide = points >= _ASCII
    slow = np.flatnonzero(valid & (wide[1:-2] | wide[2:-1] | wide[3:] | (third == _TAB)))
    if len(slow):
        codes = (first[slow].astype(np.int64) * _SHIFT + second[slow]) * _SHIFT + third[slow]
        # asked for counts, np.unique sorts; for values alone, numpy 2.4
        # hashes instead and imports numpy.ma, about 1 MB
        distinct, _ = np.unique(codes, return_counts=True)
        table = np.array([bucket[code] for code in distinct.tolist()], dtype=np.int16)
        buckets[slow] = table[np.searchsorted(distinct, codes)]
    return buckets[valid], rows


class _Chunk(NamedTuple):
    """The sparse rows of one build chunk: each row's ``(bucket, count)``
    pairs sorted by bucket, the pairs of all rows in row order."""

    buckets: np.ndarray  # int16: every bucket is below EMBED_DIM
    counts: np.ndarray  # unsigned, the narrowest type for the chunk's largest count
    starts: np.ndarray  # each row's first pair, then the end of the last
    filled: np.ndarray  # the rows with at least one pair, numbered in the whole index
    heads: np.ndarray  # the first pair of each filled row
    repeated: np.ndarray | slice  # the pairs counted more than once, or all pairs
    repeats: np.ndarray  # their counts as float64, exact for any count

    def dots(self, vec: np.ndarray) -> np.ndarray:
        """The dot product of ``vec`` with each filled row. A pair counted
        once contributes its bucket's entry of ``vec`` as it is, so only the
        ``repeated`` pairs are multiplied by their counts."""
        products = vec.take(self.buckets)
        products[self.repeated] *= self.repeats
        return np.add.reduceat(products, self.heads)


class TrigramRows:
    """The hashed character-trigram frequency vectors of many texts as sparse rows.

    The rows are built ``_CHUNK_ROWS`` texts at a time with array operations,
    an ASCII trigram's bucket read from three tables and each distinct other
    gram hashed once (``_gram_buckets``), and kept in the chunks they were
    built in: each chunk holds its rows' ``(bucket, count)`` pairs as int16
    buckets and counts of the narrowest unsigned type that holds the chunk's
    largest: 3 bytes per distinct trigram of a text, where a dense row takes
    32 KiB, while no trigram repeats 256 times in one text of the chunk. A
    chunk also holds float64 counts for scoring: with their positions, 16
    bytes more, for the pairs counted more than once, or, in a chunk where
    many pairs repeat, 8 bytes more for every pair.
    The rows' L2 norms lie in one array. No array spans chunks, so the
    build's working arrays hold one chunk's grams at a time, and a scoring
    pass one chunk's products: ``cosines`` scores the rows one chunk at a
    time.

    Counts are integers, so every dot product and squared norm is exact in
    float64 whatever the order of summation, and a score equals the cosine
    of the two dense vectors bit for bit.
    """

    def __init__(self, texts: list[str]) -> None:
        bucket = _Buckets()
        self.chunk_rows = _CHUNK_ROWS
        self.chunks: list[_Chunk] = []
        squares = [np.zeros(0)]  # per chunk: each row's squared norm
        for lo in range(0, len(texts), self.chunk_rows):
            chunk = texts[lo : lo + self.chunk_rows]
            buckets, rows = _gram_buckets(chunk, bucket)
            pairs, count = np.unique(rows * EMBED_DIM + buckets, return_counts=True)
            rows = pairs // EMBED_DIM
            sizes = np.bincount(rows, minlength=len(chunk))
            starts = np.concatenate(([0], np.cumsum(sizes)))
            filled = np.flatnonzero(sizes)
            repeated = np.flatnonzero(count > 1)
            if len(repeated) * _REPEATS_SPARSE > len(count):
                repeated = slice(None)
            self.chunks.append(_Chunk(
                buckets=(pairs % EMBED_DIM).astype(np.int16),
                counts=count.astype(np.min_scalar_type(count.max(initial=0))),
                starts=starts,
                filled=lo + filled,
                heads=starts[filled],
                repeated=repeated,
                repeats=count[repeated].astype(np.float64),
            ))
            squares.append(np.bincount(rows, count * count, minlength=len(chunk)))
        self.norms = np.sqrt(np.concatenate(squares))

    def __len__(self) -> int:
        return len(self.norms)

    def dense(self, row: int) -> tuple[np.ndarray, float]:
        """One row as a dense vector, with its norm."""
        chunk = self.chunks[row // self.chunk_rows]
        local = row % self.chunk_rows
        lo, hi = chunk.starts[local], chunk.starts[local + 1]
        vec = np.zeros(EMBED_DIM)
        vec.put(chunk.buckets[lo:hi], chunk.counts[lo:hi])
        return vec, float(self.norms[row])

    def cosines(self, vec: np.ndarray, norm: float) -> np.ndarray:
        """The cosine of ``vec`` with every row, one chunk's sparse mat-vec at
        a time: ``dot / (norm * row_norm)``, and 0.0 where that product is 0."""
        dots = np.zeros(len(self))
        for chunk in self.chunks:
            if len(chunk.filled):
                dots[chunk.filled] = chunk.dots(vec)
        denom = norm * self.norms
        out = np.zeros(len(self))
        np.divide(dots, denom, out=out, where=denom != 0.0)
        return out


def _text_vector(text: str) -> tuple[np.ndarray, float]:
    return TrigramRows([text]).dense(0)


class SimilarityIndex:
    """Sparse trigram rows of a pool's questions, built once per pool.

    Rows follow pool order; ``rows`` maps each member, by identity, to its
    row. A target that is not one of the pool's objects, such as a dev
    example scored against a train pool, has no row even if a member shares
    its index. The rows of the pool's gold-SQL skeletons, each rendered with
    its own database's schema from ``schemas``, are built on first use: only
    dual similarity reads them, so a question-similarity pool never parses
    any SQL.
    """

    def __init__(
        self, pool: list[ExampleTriple], schemas: dict[str, DatabaseSchema] | None = None
    ) -> None:
        self.examples = pool
        self.schemas = schemas or {}
        self.rows = {id(ex): row for row, ex in enumerate(pool)}
        self.ids = np.array([ex.index for ex in pool], dtype=np.int64)
        self.questions = TrigramRows([ex.question for ex in pool])

    @cached_property
    def skeletons(self) -> TrigramRows:
        """Skeleton rows of every pool member's gold SQL, each rendered with
        its own database's schema."""
        return TrigramRows(
            [sql_skeleton(ex.gold_sql, self.schemas.get(ex.db_id)) for ex in self.examples]
        )


def build_index(
    pool: list[ExampleTriple], schemas: dict[str, DatabaseSchema] | None = None
) -> SimilarityIndex:
    return SimilarityIndex(pool, schemas)


def _top_k(k: int, ids: np.ndarray, *scores: np.ndarray) -> np.ndarray:
    """Positions of the k best candidates, best first: highest ``scores[0]``,
    ties broken by the later scores in turn, then by the lowest id. Only the
    candidates that reach the k-th best first score are sorted."""
    first = scores[0]
    near = np.flatnonzero(first >= np.partition(first, len(first) - k)[len(first) - k])
    keys = [ids[near]] + [-score[near] for score in reversed(scores)]
    return near[np.lexsort(keys)[:k]]


@dataclass(frozen=True)
class SelectionPolicy:
    strategy: str = RANDOM
    k: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.k < 0:
            raise ValueError("k must be non-negative")


_LITERAL_RE = re.compile(r"'[^']*'|\"[^\"]*\"|\b\d+(?:\.\d+)?\b")


def sql_skeleton(sql: str, schema: DatabaseSchema | None) -> str:
    """Literal-masked canonical rendering; regex masking as a fallback for
    SQL outside the parser's subset."""
    if schema is not None:
        try:
            return parse_sql(sql, schema).signature
        except SqlParseError:
            pass
    return _LITERAL_RE.sub("?", sql.lower())


def _rng_for(seed: int, purpose: str, index: int) -> random.Random:
    # string seeding hashes via sha512: stable across runs and platforms
    return random.Random(f"{seed}:{purpose}:{index}")


def select(
    target: ExampleTriple,
    pool: list[ExampleTriple],
    policy: SelectionPolicy,
    index: SimilarityIndex | None = None,
    draft_sql: str | None = None,
    corpus_mode: bool = False,
) -> list[ExampleTriple]:
    """Choose the k exemplars for one target.

    The target itself is never its own exemplar; any other pool member may
    be, whatever its index. Similarity strategies score every row of the
    index built over ``pool``, with the target's own row, if any, at -inf
    in the first ranking score, and return the selection ordered
    most-similar-last, so the nearest exemplar sits adjacent to the target
    question in the prompt. Dual similarity needs ``draft_sql`` outside
    corpus mode, where the target's gold stands in for it; a member's row
    gives its question vector, and its skeleton vector when there is no draft.
    """
    if policy.k == 0:
        return []
    if policy.k >= len(pool):  # only then can the target's exclusion leave too few
        candidates = sum(ex is not target for ex in pool)
        if policy.k > candidates:
            raise ValueError(f"k={policy.k} exceeds pool size {candidates}")

    if policy.strategy == RANDOM:
        rng = _rng_for(policy.seed, "select", target.index)
        # draw one extra, drop the target if sampled: still a uniform k-sample
        take = min(len(pool), policy.k + 1)
        return [ex for ex in rng.sample(pool, take) if ex is not target][: policy.k]

    if index is None:
        raise ValueError("similarity strategies require a similarity index")
    if pool is not index.examples:
        raise ValueError("similarity index was built over another pool")
    row = index.rows.get(id(target))
    question = _text_vector(target.question) if row is None else index.questions.dense(row)
    scores = [index.questions.cosines(*question)]
    if policy.strategy == DUAL_SIMILARITY:
        if draft_sql is None and not corpus_mode:
            raise ValueError("dual-similarity selection needs a draft SQL outside corpus mode")
        # rank by how close a candidate's SQL skeleton is to the draft's (in
        # corpus mode, the target's gold), ties broken by question similarity
        if draft_sql is None and row is not None:
            skeleton = index.skeletons.dense(row)
        else:
            sql = target.gold_sql if draft_sql is None else draft_sql
            skeleton = _text_vector(sql_skeleton(sql, index.schemas.get(target.db_id)))
        scores.insert(0, index.skeletons.cosines(*skeleton))
    if row is not None:  # masked: the target ranks below every candidate
        scores[0][row] = -np.inf
    # most similar last
    return [pool[i] for i in reversed(_top_k(policy.k, index.ids, *scores))]


def mix_shots(
    policy: SelectionPolicy, examples: list[ExampleTriple], choices: tuple[int, ...]
) -> dict[int, int]:
    """Per-example shot counts, each a seeded uniform draw from ``choices``.
    A single choice is every example's count, and no draw is made."""
    if not choices or min(choices) < 0:
        raise ValueError(f"shot choices must be one or more non-negative counts, got {choices}")
    if len(choices) == 1:
        return dict.fromkeys((ex.index for ex in examples), choices[0])
    return {
        ex.index: _rng_for(policy.seed, "shots", ex.index).choice(choices)
        for ex in examples
    }

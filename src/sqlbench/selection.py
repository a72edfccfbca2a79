"""Exemplar selection for few-shot prompting and corpus construction.

Strategies: uniform random, question similarity, and dual similarity, which
re-ranks question-similar candidates by how close their gold SQL skeleton is
to a draft SQL for the target. Questions and skeletons are embedded as
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
_CHUNK_ROWS = 1024  # texts embedded at a time: bounds the build's working arrays
# normalized text holds no tab: tabs separate texts and pad short grams
_TAB = ord("\t")
_SHIFT = 1 << 21  # above every code point: a gram code packs three 21-bit fields


def _gram_codes(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each text's grams as int64 codes, with the row of each code. A text is
    lower-cased and its whitespace runs collapsed to single spaces; its grams
    are its character trigrams, or the whole text, padded with tabs to three
    code points, when it is one or two characters long."""
    normalized = [" ".join(text.lower().split()) for text in texts]
    grams = [max(len(text) - 2, min(len(text), 1)) for text in normalized]
    joined = "\t" + "\t\t".join(normalized) + "\t\t"
    points = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4").astype(np.int64)
    before, first, second, third = points[:-3], points[1:-2], points[2:-1], points[3:]
    # a gram starts on a character and ends on one, unless it is a whole short text
    valid = (first != _TAB) & ((third != _TAB) | (before == _TAB))
    codes = (first * _SHIFT + second) * _SHIFT + third
    return codes[valid], np.repeat(np.arange(len(texts)), grams)


class _Buckets(dict):
    """Gram code -> hash bucket, the CRC-32 of the gram's UTF-8 bytes modulo
    ``EMBED_DIM``; each distinct gram is hashed once."""

    def __missing__(self, code: int) -> int:
        points = (code // _SHIFT // _SHIFT, code // _SHIFT % _SHIFT, code % _SHIFT)
        gram = "".join(chr(point) for point in points if point != _TAB)
        bucket = self[code] = zlib.crc32(gram.encode("utf-8")) % EMBED_DIM
        return bucket


class _Chunk(NamedTuple):
    """The sparse rows of one build chunk: each row's ``(bucket, count)``
    pairs sorted by bucket, the pairs of all rows in row order."""

    buckets: np.ndarray  # int16: every bucket is below EMBED_DIM
    counts: np.ndarray  # int32
    starts: np.ndarray  # each row's first pair, then the end of the last
    filled: np.ndarray  # the rows with at least one pair, numbered in the whole index
    heads: np.ndarray  # the first pair of each filled row

    def dots(self, vec: np.ndarray) -> np.ndarray:
        """The dot product of ``vec`` with each filled row. The products are
        widened to float64 here, one chunk at a time, and freed on return;
        int32 to float64 is exact."""
        products = vec.take(self.buckets)
        products *= self.counts.astype(np.float64)
        return np.add.reduceat(products, self.heads)


class TrigramRows:
    """The hashed character-trigram frequency vectors of many texts as sparse rows.

    The rows are built ``_CHUNK_ROWS`` texts at a time with array operations,
    each distinct gram hashed once, and kept in the chunks they were built
    in: each chunk holds its rows' ``(bucket, count)`` pairs as int16 buckets
    and int32 counts, 6 bytes per distinct trigram of a text where a dense
    row takes 32 KiB. The rows' L2 norms lie in one array. No array spans
    chunks, so neither the build nor a scoring pass holds a copy of every
    row's pairs at once: ``cosines`` scores the rows one chunk at a time.

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
            codes, rows = _gram_codes(chunk)
            # asked for counts, np.unique sorts; for values alone, numpy 2.4
            # hashes instead and imports numpy.ma, about 1 MB
            distinct, _ = np.unique(codes, return_counts=True)
            table = np.array([bucket[code] for code in distinct.tolist()], dtype=np.int64)
            keys = rows * EMBED_DIM + table[np.searchsorted(distinct, codes)]
            pairs, count = np.unique(keys, return_counts=True)
            rows = pairs // EMBED_DIM
            sizes = np.bincount(rows, minlength=len(chunk))
            starts = np.concatenate(([0], np.cumsum(sizes)))
            filled = np.flatnonzero(sizes)
            self.chunks.append(_Chunk(
                buckets=(pairs % EMBED_DIM).astype(np.int16),
                counts=count.astype(np.int32),
                starts=starts,
                filled=lo + filled,
                heads=starts[filled],
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

    Rows follow pool order. The index answers only for the pool list it was
    built over: a target that is not one of its example objects, such as a
    dev example scored against a train pool, is embedded from its own
    question even if a pool member shares its index. The rows of the pool's
    gold-SQL skeletons, each rendered with its own database's schema from
    ``schemas``, are built on first use: only dual similarity reads them, so
    a question-similarity pool never parses any SQL.
    """

    def __init__(
        self, pool: list[ExampleTriple], schemas: dict[str, DatabaseSchema] | None = None
    ) -> None:
        self.examples = pool
        self.schemas = schemas or {}
        self.row_of = {ex.index: row for row, ex in enumerate(pool)}
        self.ids = np.array([ex.index for ex in pool], dtype=np.int64)
        self.questions = TrigramRows([ex.question for ex in pool])

    def row(self, example: ExampleTriple) -> int | None:
        """The row of ``example`` if it is a pool member, else None."""
        row = self.row_of.get(example.index)
        return row if row is not None and self.examples[row] is example else None

    def rows_for(self, pool: list[ExampleTriple], exclude: ExampleTriple) -> np.ndarray:
        """The rows of the members of ``pool`` other than ``exclude``, in pool
        order; ``pool`` must be the list the index was built over."""
        if pool is not self.examples:
            raise ValueError("similarity index was built over another pool")
        row = self.row(exclude)
        if row is None:
            return np.arange(len(pool))
        rows = np.arange(len(pool) - 1)
        rows[row:] += 1
        return rows

    def question_vector(self, example: ExampleTriple) -> tuple[np.ndarray, float]:
        row = self.row(example)
        if row is None:
            return _text_vector(example.question)
        return self.questions.dense(row)

    @cached_property
    def skeletons(self) -> TrigramRows:
        """Skeleton rows of every pool member's gold SQL, each rendered with
        its own database's schema."""
        return TrigramRows(
            [sql_skeleton(ex.gold_sql, self.schemas.get(ex.db_id)) for ex in self.examples]
        )

    def skeleton_vector(
        self, example: ExampleTriple, sql: str | None = None
    ) -> tuple[np.ndarray, float]:
        """The skeleton vector of ``sql``, by default the example's gold,
        rendered with the example's schema; a pool member's gold is its row."""
        if sql is None:
            row = self.row(example)
            if row is not None:
                return self.skeletons.dense(row)
            sql = example.gold_sql
        return _text_vector(sql_skeleton(sql, self.schemas.get(example.db_id)))


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
    be, whatever its index. Similarity strategies return the selection
    ordered most-similar-last, so the nearest exemplar sits adjacent to the
    target question in the prompt. Dual similarity needs ``draft_sql``
    outside corpus mode, where the target's gold stands in for it.
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
    rows = index.rows_for(pool, target)
    ids = index.ids[rows]
    q_sim = index.questions.cosines(*index.question_vector(target))[rows]

    if policy.strategy == QUESTION_SIMILARITY:
        top = _top_k(policy.k, ids, q_sim)
    elif draft_sql is None and not corpus_mode:
        raise ValueError("dual-similarity selection needs a draft SQL outside corpus mode")
    else:
        # dual similarity: re-rank question-similar candidates by how close
        # their SQL skeleton is to the draft's (in corpus mode, the target's gold)
        draft = index.skeleton_vector(target, draft_sql)
        skel_sim = index.skeletons.cosines(*draft)[rows]
        top = _top_k(policy.k, ids, skel_sim, q_sim)
    # most similar last; a pool member is the index's own example object
    return [index.examples[rows[i]] for i in reversed(top)]


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

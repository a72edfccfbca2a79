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
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datasets import DatabaseSchema, ExampleTriple
from .sqlkit import SqlParseError, clause_signature, parse_sql

RANDOM = "random"
QUESTION_SIMILARITY = "question-similarity"
DUAL_SIMILARITY = "dual-similarity"
STRATEGIES = (RANDOM, QUESTION_SIMILARITY, DUAL_SIMILARITY)

EMBED_DIM = 4096


def _trigrams(text: str) -> list[str]:
    """The character trigrams of the normalized text (the text itself if shorter)."""
    normalized = " ".join(text.lower().split())
    if len(normalized) < 3:
        return [normalized] if normalized else []
    return [normalized[i : i + 3] for i in range(len(normalized) - 2)]


class _Buckets(dict):
    """Trigram -> hash bucket; each distinct trigram is hashed once."""

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.dim = dim

    def __missing__(self, gram: str) -> int:
        bucket = self[gram] = zlib.crc32(gram.encode("utf-8")) % self.dim
        return bucket


def trigram_vector(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Hashed character-trigram frequency vector over the normalized text."""
    buckets = [zlib.crc32(gram.encode("utf-8")) % dim for gram in _trigrams(text)]
    return np.bincount(np.array(buckets, dtype=np.intp), minlength=dim).astype(np.float64)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b)) / norm


def _text_vector(text: str) -> tuple[np.ndarray, float]:
    vec = trigram_vector(text)
    return vec, float(np.linalg.norm(vec))


class TrigramRows:
    """The trigram vectors of many texts as sparse rows.

    Each row holds its text's ``(bucket, count)`` pairs sorted by bucket; the
    pairs of all rows lie in flat arrays in row order, beside each row's L2
    norm. Counts are integers, so every dot product and squared norm is exact
    in float64 whatever the order of summation, and scores equal ``cosine``
    bit for bit. Memory is 16 bytes per distinct trigram of a text, where a
    dense row takes 32 KiB.
    """

    def __init__(self, texts: list[str], dim: int = EMBED_DIM) -> None:
        bucket = _Buckets(dim)
        keys = array("q")  # row * dim + bucket, one per trigram
        for row, text in enumerate(texts):
            base = row * dim
            keys.extend([base + bucket[gram] for gram in _trigrams(text)])
        pairs, counts = np.unique(np.frombuffer(keys, dtype=np.int64), return_counts=True)
        rows = pairs // dim
        self.dim = dim
        self.buckets = (pairs % dim).astype(np.intp)
        self.counts = counts.astype(np.float64)
        self.starts = np.searchsorted(rows, np.arange(len(texts) + 1))
        self.norms = np.sqrt(np.bincount(rows, self.counts * self.counts, minlength=len(texts)))
        self._filled = np.flatnonzero(self.norms)  # rows with at least one pair

    def __len__(self) -> int:
        return len(self.norms)

    def dense(self, row: int) -> tuple[np.ndarray, float]:
        """One row as a dense vector, with its norm."""
        lo, hi = self.starts[row], self.starts[row + 1]
        vec = np.zeros(self.dim)
        vec[self.buckets[lo:hi]] = self.counts[lo:hi]
        return vec, float(self.norms[row])

    def cosines(self, vec: np.ndarray, norm: float) -> np.ndarray:
        """``cosine(vec, row)`` for every row, from one sparse mat-vec:
        ``dot / (norm * row_norm)``, and 0.0 where that product is 0."""
        products = np.take(vec, self.buckets)
        products *= self.counts
        dots = np.zeros(len(self))
        if len(self._filled):
            dots[self._filled] = np.add.reduceat(products, self.starts[self._filled])
        denom = norm * self.norms
        out = np.zeros(len(self))
        np.divide(dots, denom, out=out, where=denom != 0.0)
        return out


class SimilarityIndex:
    """Sparse trigram rows of a pool's questions, built once per pool.

    Rows follow pool order. The index answers only for the example objects
    it was built over: a target that is not one of them, such as a dev
    example scored against a train pool, is embedded from its own question
    even if a pool member shares its index. The rows of the pool's gold-SQL
    skeletons, each rendered with its own database's schema from
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

    def rows_for(self, pool: list[ExampleTriple], positions: list[int]) -> np.ndarray:
        """The rows of ``pool[i]`` for each of ``positions``."""
        if pool is self.examples:
            return np.array(positions, dtype=np.intp)
        rows = [self.row(pool[i]) for i in positions]
        missing = [pool[i].index for i, row in zip(positions, rows) if row is None]
        if missing:
            raise ValueError(f"similarity index missing vectors for examples {missing}")
        return np.array(rows, dtype=np.intp)

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
            return clause_signature(parse_sql(sql, schema))
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

    if policy.strategy == RANDOM:
        rng = _rng_for(policy.seed, "select", target.index)
        # draw one extra, drop the target if sampled: still a uniform k-sample
        take = min(len(pool), policy.k + 1)
        picked = [ex for ex in rng.sample(pool, take) if ex is not target][: policy.k]
        if len(picked) < policy.k:  # only when the whole pool was drawn
            raise ValueError(f"k={policy.k} exceeds pool size {len(picked)}")
        return picked

    keep = [i for i, ex in enumerate(pool) if ex is not target]
    if policy.k > len(keep):
        raise ValueError(f"k={policy.k} exceeds pool size {len(keep)}")

    if index is None:
        raise ValueError("similarity strategies require a similarity index")
    rows = index.rows_for(pool, keep)
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
    # most similar last
    return [pool[keep[i]] for i in reversed(top)]


FIXED_K = "fixed-k"
RANDOM_SHOT = "random-shot"
DEFAULT_SHOT_CHOICES = (0, 1, 3, 5)


def mix_shots(
    policy: SelectionPolicy,
    mode: str,
    examples: list[ExampleTriple],
    choices: tuple[int, ...] = DEFAULT_SHOT_CHOICES,
) -> dict[int, int]:
    """Per-example shot counts: the constant k, or a seeded uniform draw
    from ``choices`` for the random-shot corpus mode."""
    if mode == FIXED_K:
        return {ex.index: policy.k for ex in examples}
    if mode != RANDOM_SHOT:
        raise ValueError(f"unknown shot-mixing mode {mode!r}")
    if not choices:
        raise ValueError("random-shot requires a non-empty choice list")
    if any(choice < 0 for choice in choices):
        raise ValueError("shot counts must be non-negative")
    return {
        ex.index: _rng_for(policy.seed, "shots", ex.index).choice(list(choices))
        for ex in examples
    }

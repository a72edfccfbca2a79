"""Exemplar selection for few-shot prompting and corpus construction.

Strategies: uniform random, question similarity, and dual similarity, which
re-ranks question-similar candidates by how close their gold SQL skeleton is
to a draft SQL for the target. The default embedder is a hashed character
trigram frequency vector, deterministic across runs and platforms.
"""

from __future__ import annotations

import logging
import random
import re
import zlib
from dataclasses import dataclass, field

import numpy as np

from .datasets import DatabaseSchema, ExampleTriple
from .sqlkit import SqlParseError, clause_signature, parse_sql

logger = logging.getLogger(__name__)

RANDOM = "random"
QUESTION_SIMILARITY = "question-similarity"
DUAL_SIMILARITY = "dual-similarity"
STRATEGIES = (RANDOM, QUESTION_SIMILARITY, DUAL_SIMILARITY)

EMBED_DIM = 4096


def trigram_vector(text: str, dim: int = EMBED_DIM) -> np.ndarray:
    """Hashed character-trigram frequency vector over the normalized text."""
    normalized = " ".join(text.lower().split())
    vec = np.zeros(dim, dtype=np.float64)
    if not normalized:
        return vec
    grams = (
        [normalized[i : i + 3] for i in range(len(normalized) - 2)]
        if len(normalized) >= 3
        else [normalized]
    )
    for gram in grams:
        vec[zlib.crc32(gram.encode("utf-8")) % dim] += 1.0
    return vec


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if norm == 0.0:
        return 0.0
    return float(np.dot(a, b)) / norm


@dataclass
class SimilarityIndex:
    vectors: dict[int, np.ndarray] = field(default_factory=dict)

    def vector_for(self, example: ExampleTriple) -> np.ndarray:
        vec = self.vectors.get(example.index)
        if vec is None:
            vec = trigram_vector(example.question)
        return vec


def build_index(pool: list[ExampleTriple], embedder=trigram_vector) -> SimilarityIndex:
    vectors = {}
    for ex in pool:
        try:
            vectors[ex.index] = embedder(ex.question)
        except Exception as exc:
            raise RuntimeError(f"embedder failed on example {ex.index}: {exc}") from exc
    return SimilarityIndex(vectors=vectors)


@dataclass(frozen=True)
class SelectionPolicy:
    strategy: str = RANDOM
    k: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown selection strategy {self.strategy!r}")
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
    schema: DatabaseSchema | None = None,
    corpus_mode: bool = False,
) -> list[ExampleTriple]:
    """Choose the k exemplars for one target.

    The target itself is never its own exemplar; any other pool member may
    be, whatever its index. Similarity strategies return the selection
    ordered most-similar-last, so the nearest exemplar sits adjacent to the
    target question in the prompt.
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

    candidates = [ex for ex in pool if ex is not target]
    if policy.k > len(candidates):
        raise ValueError(f"k={policy.k} exceeds pool size {len(candidates)}")

    if index is None:
        raise ValueError("similarity strategies require a similarity index")
    missing = [ex.index for ex in candidates if ex.index not in index.vectors]
    if missing:
        raise ValueError(f"similarity index missing vectors for examples {missing}")
    target_vec = index.vector_for(target)
    scored = [
        (cosine(target_vec, index.vectors[ex.index]), ex) for ex in candidates
    ]

    if policy.strategy == QUESTION_SIMILARITY:
        ranked = sorted(scored, key=lambda pair: (-pair[0], pair[1].index))
        top = [ex for _, ex in ranked[: policy.k]]
        return list(reversed(top))

    # dual similarity: re-rank question-similar candidates by SQL skeleton
    if draft_sql is None and corpus_mode:
        draft_sql = target.gold_sql
    if draft_sql is None:
        logger.warning(
            "dual-similarity selection without a draft SQL for example %d;"
            " falling back to question similarity",
            target.index,
        )
        ranked = sorted(scored, key=lambda pair: (-pair[0], pair[1].index))
        top = [ex for _, ex in ranked[: policy.k]]
        return list(reversed(top))
    draft_vec = trigram_vector(sql_skeleton(draft_sql, schema))
    rescored = []
    for q_sim, ex in scored:
        sql_vec = trigram_vector(sql_skeleton(ex.gold_sql, schema))
        rescored.append((cosine(draft_vec, sql_vec), q_sim, ex))
    ranked = sorted(rescored, key=lambda item: (-item[0], -item[1], item[2].index))
    top = [ex for _, _, ex in ranked[: policy.k]]
    return list(reversed(top))


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

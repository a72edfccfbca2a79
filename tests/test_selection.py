from __future__ import annotations

import numpy as np
import pytest

from sqlbench.datasets import ExampleTriple
from sqlbench.selection import (
    DUAL_SIMILARITY,
    FIXED_K,
    QUESTION_SIMILARITY,
    RANDOM,
    RANDOM_SHOT,
    SelectionPolicy,
    build_index,
    cosine,
    mix_shots,
    select,
    sql_skeleton,
    trigram_vector,
)


def make_pool(n: int, db_id: str = "concert_singer") -> list[ExampleTriple]:
    return [
        ExampleTriple(
            index=i,
            question=f"How many items of kind {i} exist in group {i % 3}?",
            gold_sql=f"SELECT count(*) FROM singer WHERE age > {i}",
            db_id=db_id,
        )
        for i in range(n)
    ]


def test_k_zero_every_strategy():
    pool = make_pool(5)
    index = build_index(pool)
    for strategy in (RANDOM, QUESTION_SIMILARITY, DUAL_SIMILARITY):
        policy = SelectionPolicy(strategy=strategy, k=0, seed=7)
        assert select(pool[0], pool, policy, index=index) == []


def test_random_deterministic_and_self_excluding():
    pool = make_pool(30)
    policy = SelectionPolicy(strategy=RANDOM, k=5, seed=99)
    target = pool[4]
    first = select(target, pool, policy)
    second = select(target, pool, policy)
    assert first == second
    assert all(ex.index != target.index for ex in first)
    assert len({ex.index for ex in first}) == 5
    other_seed = SelectionPolicy(strategy=RANDOM, k=5, seed=100)
    assert select(target, pool, other_seed) != first


def test_random_varies_by_target():
    pool = make_pool(30)
    policy = SelectionPolicy(strategy=RANDOM, k=4, seed=1)
    picks = {tuple(e.index for e in select(t, pool, policy)) for t in pool[:6]}
    assert len(picks) > 1


def test_k_exceeding_pool_is_rejected():
    pool = make_pool(3)
    policy = SelectionPolicy(strategy=RANDOM, k=3, seed=0)  # 2 candidates after exclusion
    with pytest.raises(ValueError, match="exceeds"):
        select(pool[0], pool, policy)


def test_question_similarity_brute_force_oracle():
    """Against a 20-example pool, the strategy must agree with a brute-force
    cosine ranking; an identical question ranks first (cosine 1)."""
    pool = make_pool(20)
    target = ExampleTriple(
        index=999, question=pool[7].question, gold_sql="SELECT 1", db_id="concert_singer"
    )
    index = build_index(pool)
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=4, seed=0)
    chosen = select(target, pool, policy, index=index)
    target_vec = trigram_vector(target.question)
    brute = sorted(
        pool, key=lambda ex: (-cosine(target_vec, index.vectors[ex.index]), ex.index)
    )[:4]
    assert chosen == list(reversed(brute))  # most similar last
    assert chosen[-1].index == 7


def test_similarity_index_missing_vectors():
    pool = make_pool(5)
    index = build_index(pool[:3])
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=2, seed=0)
    with pytest.raises(ValueError, match="missing vectors"):
        select(pool[0], pool, policy, index=index)


def test_similarity_requires_index():
    pool = make_pool(5)
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=2, seed=0)
    with pytest.raises(ValueError, match="index"):
        select(pool[0], pool, policy)


def test_trigram_embedder_self_similarity():
    vec = trigram_vector("How many singers do we have?")
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-9)


def test_trigram_embedder_disjoint_questions():
    # hand-checked: the two trigram sets {"abc"} and {"xyz"} hash to
    # different buckets, so the sparse vectors are orthogonal
    a, b = trigram_vector("abc"), trigram_vector("xyz")
    assert cosine(a, b) == 0.0
    assert np.count_nonzero(a) == 1 and np.count_nonzero(b) == 1


def test_empty_pool_index():
    assert build_index([]).vectors == {}


def test_dual_similarity_prefers_matching_sql_shape(bundle):
    schema = bundle.schemas["concert_singer"]
    pool = [
        ExampleTriple(0, "count all the singers", "SELECT count(*) FROM singer", "concert_singer"),
        ExampleTriple(1, "count all the stadium rows", "SELECT count(*) FROM stadium", "concert_singer"),
        ExampleTriple(2, "names ordered by age", "SELECT name FROM singer ORDER BY age DESC LIMIT 1", "concert_singer"),
    ]
    target = ExampleTriple(
        9, "count every singer we have", "SELECT count(*) FROM singer", "concert_singer"
    )
    index = build_index(pool)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=1, seed=0)
    chosen = select(target, pool, policy, index=index,
                    draft_sql="SELECT count(*) FROM singer", schema=schema)
    assert chosen[0].index == 0


def test_dual_similarity_without_draft_degrades(caplog, bundle):
    pool = make_pool(6)
    index = build_index(pool)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=2, seed=0)
    with caplog.at_level("WARNING"):
        chosen = select(pool[0], pool, policy, index=index)
    assert len(chosen) == 2
    assert any("falling back" in rec.message for rec in caplog.records)


def test_dual_similarity_corpus_mode_uses_gold():
    pool = make_pool(6)
    index = build_index(pool)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=2, seed=0)
    chosen = select(pool[0], pool, policy, index=index, corpus_mode=True)
    assert len(chosen) == 2


def test_sql_skeleton_masks_literals(bundle):
    schema = bundle.schemas["concert_singer"]
    a = sql_skeleton("SELECT name FROM singer WHERE age > 20", schema)
    b = sql_skeleton("SELECT name FROM singer WHERE age > 999", schema)
    assert a == b
    # fallback path for unparseable SQL still masks literals
    fallback = sql_skeleton("FOO BAR 123 'baz'", None)
    assert "123" not in fallback and "baz" not in fallback


def test_mix_shots_fixed():
    pool = make_pool(10)
    policy = SelectionPolicy(strategy=RANDOM, k=3, seed=5)
    plan = mix_shots(policy, FIXED_K, pool)
    assert plan == {ex.index: 3 for ex in pool}


def test_mix_shots_random_uniform():
    pool = make_pool(10_000)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=17)
    plan = mix_shots(policy, RANDOM_SHOT, pool, choices=(0, 1, 3, 5))
    counts = {c: 0 for c in (0, 1, 3, 5)}
    for k in plan.values():
        counts[k] += 1
    for c, n in counts.items():
        assert abs(n / 10_000 - 0.25) <= 0.02, (c, n)
    # deterministic under the same seed
    assert plan == mix_shots(policy, RANDOM_SHOT, pool, choices=(0, 1, 3, 5))


def test_mix_shots_degenerate_choices():
    pool = make_pool(10)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=5)
    plan = mix_shots(policy, RANDOM_SHOT, pool, choices=(0,))
    assert set(plan.values()) == {0}


def test_mix_shots_rejects_negative():
    pool = make_pool(3)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=5)
    with pytest.raises(ValueError):
        mix_shots(policy, RANDOM_SHOT, pool, choices=(0, -1))


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(strategy="nearest-neighbor", k=1, seed=0)
    with pytest.raises(ValueError):
        SelectionPolicy(strategy=RANDOM, k=-1, seed=0)


def test_build_index_propagates_embedder_failure_with_index():
    pool = make_pool(3)

    def broken(text):
        if "kind 1" in text:
            raise RuntimeError("boom")
        return trigram_vector(text)

    with pytest.raises(RuntimeError, match="example 1"):
        build_index(pool, embedder=broken)


@pytest.mark.parametrize("strategy", [RANDOM, QUESTION_SIMILARITY])
def test_cross_split_pool_keeps_same_ordinal(bundle, strategy):
    """Only the target itself is excluded: dev example 3 may draw train example 3."""
    train = bundle.splits["train"]
    target = bundle.splits["dev"][3]
    policy = SelectionPolicy(strategy=strategy, k=len(train), seed=0)
    chosen = select(target, train, policy, index=build_index(train))
    assert sorted(ex.index for ex in chosen) == [ex.index for ex in train]

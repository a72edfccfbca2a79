from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.datasets import ExampleTriple
from sqlbench.selection import (
    DUAL_SIMILARITY,
    QUESTION_SIMILARITY,
    RANDOM,
    EMBED_DIM,
    SelectionPolicy,
    TrigramRows,
    build_index,
    mix_shots,
    select,
    sql_skeleton,
)
from trigram_oracle import cosine, trigram_vector


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
        pool, key=lambda ex: (-cosine(target_vec, trigram_vector(ex.question)), ex.index)
    )[:4]
    assert chosen == list(reversed(brute))  # most similar last
    assert chosen[-1].index == 7


def test_cross_split_target_ranks_by_its_own_question(bundle):
    """A target from another split is embedded from its own question, not from
    the pool member that happens to share its index."""
    train = bundle.splits["train"]
    target = ExampleTriple(0, train[5].question, "SELECT 1", train[5].db_id)
    index = build_index(train)
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=3, seed=0)
    chosen = select(target, train, policy, index=index)
    assert chosen[-1] is train[5]
    assert train[0] not in chosen


def test_similarity_index_refuses_another_pool():
    """An index answers for its own pool list only, not for a larger pool,
    nor for another list of the same members."""
    pool = make_pool(5)
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=2, seed=0)
    for other, index in ((pool, build_index(pool[:3])), (list(pool), build_index(pool))):
        with pytest.raises(ValueError, match="another pool"):
            select(pool[0], other, policy, index=index)


def test_similarity_pool_size_is_checked_before_the_index():
    pool = make_pool(3)
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=3, seed=0)
    with pytest.raises(ValueError, match="exceeds pool size 2"):
        select(pool[0], pool, policy)
    with pytest.raises(ValueError, match="exceeds pool size 2"):
        select(pool[0], list(pool), policy, index=build_index(pool))
    assert len(select(make_pool(1)[0], pool, policy, index=build_index(pool))) == 3


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
    index = build_index([])
    assert index.questions.norms.shape == (0,)
    assert index.questions.cosines(*index.question_vector(make_pool(1)[0])).shape == (0,)


def test_dual_similarity_prefers_matching_sql_shape(bundle):
    pool = [
        ExampleTriple(0, "count all the singers", "SELECT count(*) FROM singer", "concert_singer"),
        ExampleTriple(1, "count all the stadium rows", "SELECT count(*) FROM stadium", "concert_singer"),
        ExampleTriple(2, "names ordered by age", "SELECT name FROM singer ORDER BY age DESC LIMIT 1", "concert_singer"),
    ]
    target = ExampleTriple(
        9, "count every singer we have", "SELECT count(*) FROM singer", "concert_singer"
    )
    index = build_index(pool, bundle.schemas)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=1, seed=0)
    chosen = select(target, pool, policy, index=index, draft_sql="SELECT count(*) FROM singer")
    assert chosen[0].index == 0


def test_dual_similarity_without_draft_degrades():
    """It does not degrade: outside corpus mode, a missing draft is an error."""
    pool = make_pool(6)
    index = build_index(pool)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=2, seed=0)
    with pytest.raises(ValueError, match="draft"):
        select(pool[0], pool, policy, index=index)


def test_dual_similarity_corpus_mode_uses_gold():
    pool = make_pool(6)
    index = build_index(pool)
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=2, seed=0)
    chosen = select(pool[0], pool, policy, index=index, corpus_mode=True)
    assert len(chosen) == 2


def test_candidate_skeleton_uses_its_own_schema(bundle):
    """Each candidate's skeleton row is rendered with its own database's schema,
    once per index, whatever the target's database."""
    course = ExampleTriple(0, "Titles of the courses?", "SELECT title FROM course WHERE credits > 3",
                           "college_2")
    own = sql_skeleton(course.gold_sql, bundle.schemas["college_2"])
    assert own != sql_skeleton(course.gold_sql, bundle.schemas["concert_singer"])
    pool = [course] + bundle.splits["train"]
    index = build_index(pool, bundle.schemas)
    for row, ex in enumerate(pool):
        vec, _ = index.skeletons.dense(row)
        expected = trigram_vector(sql_skeleton(ex.gold_sql, bundle.schemas[ex.db_id]))
        assert np.array_equal(vec, expected), ex.gold_sql


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
    plan = mix_shots(policy, pool, (3,))
    assert plan == {ex.index: 3 for ex in pool}


def test_mix_shots_random_uniform():
    pool = make_pool(10_000)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=17)
    plan = mix_shots(policy, pool, (0, 1, 3, 5))
    counts = {c: 0 for c in (0, 1, 3, 5)}
    for k in plan.values():
        counts[k] += 1
    for c, n in counts.items():
        assert abs(n / 10_000 - 0.25) <= 0.02, (c, n)
    # deterministic under the same seed
    assert plan == mix_shots(policy, pool, (0, 1, 3, 5))


def test_mix_shots_degenerate_choices():
    pool = make_pool(10)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=5)
    plan = mix_shots(policy, pool, (0,))
    assert set(plan.values()) == {0}


def test_mix_shots_rejects_negative():
    pool = make_pool(3)
    policy = SelectionPolicy(strategy=RANDOM, k=0, seed=5)
    with pytest.raises(ValueError):
        mix_shots(policy, pool, (0, -1))


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(strategy="nearest-neighbor", k=1, seed=0)
    with pytest.raises(ValueError):
        SelectionPolicy(strategy=RANDOM, k=-1, seed=0)


@pytest.mark.parametrize("strategy", [RANDOM, QUESTION_SIMILARITY])
def test_cross_split_pool_keeps_same_ordinal(bundle, strategy):
    """Only the target itself is excluded: dev example 3 may draw train example 3."""
    train = bundle.splits["train"]
    target = bundle.splits["dev"][3]
    policy = SelectionPolicy(strategy=strategy, k=len(train), seed=0)
    chosen = select(target, train, policy, index=build_index(train))
    assert sorted(ex.index for ex in chosen) == [ex.index for ex in train]


# edge questions: whitespace-only and empty ones have a zero vector; the
# others tie with each other and with fixture questions after normalization
EDGE_QUESTIONS = ("", "   ", "\t\n", "ab", "How many singers do we have?",
                  "how many  SINGERS do we have?")


@st.composite
def selection_cases(draw, sources):
    """A pool with shuffled unique indices, a target inside or outside it, and a k."""
    size = draw(st.integers(2, 9))
    picked = draw(st.lists(st.sampled_from(sources), min_size=size + 1, max_size=size + 1))
    # the outside target may share its index with a pool member
    indices = draw(st.permutations(range(size))) + [draw(st.integers(0, size))]
    questions = [draw(st.sampled_from((src.question,) + EDGE_QUESTIONS)) for src in picked]
    examples = [
        ExampleTriple(index, question, src.gold_sql, src.db_id)
        for index, question, src in zip(indices, questions, picked)
    ]
    pool = examples[:size]
    target = draw(st.sampled_from(pool)) if draw(st.booleans()) else examples[size]
    candidates = len(pool) - any(ex is target for ex in pool)
    k = draw(st.one_of(st.just(candidates), st.integers(1, candidates)))
    return pool, target, k


def oracle_select(target, pool, k, skeleton_of=None):
    """Brute force: cosine of dense trigram vectors for every candidate, sorted
    by (-score, index), or by (-skeleton, -question, index) with ``skeleton_of``."""
    q_vec = trigram_vector(target.question)
    candidates = [ex for ex in pool if ex is not target]
    if skeleton_of is None:
        def key(ex):
            return (-cosine(q_vec, trigram_vector(ex.question)), ex.index)
    else:
        draft = trigram_vector(skeleton_of(target))

        def key(ex):
            return (-cosine(draft, trigram_vector(skeleton_of(ex))),
                    -cosine(q_vec, trigram_vector(ex.question)), ex.index)
    return list(reversed(sorted(candidates, key=key)[:k]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_question_similarity_matches_brute_force(bundle, data):
    pool, target, k = data.draw(selection_cases(bundle.splits["train"]))
    policy = SelectionPolicy(strategy=QUESTION_SIMILARITY, k=k, seed=0)
    chosen = select(target, pool, policy, index=build_index(pool))
    assert [ex.index for ex in chosen] == [ex.index for ex in oracle_select(target, pool, k)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dual_similarity_corpus_mode_matches_brute_force(bundle, data):
    pool, target, k = data.draw(selection_cases(bundle.splits["train"]))
    policy = SelectionPolicy(strategy=DUAL_SIMILARITY, k=k, seed=0)
    chosen = select(target, pool, policy, index=build_index(pool, bundle.schemas),
                    corpus_mode=True)

    def own_skeleton(ex):
        return sql_skeleton(ex.gold_sql, bundle.schemas[ex.db_id])

    expected = oracle_select(target, pool, k, own_skeleton)
    assert [ex.index for ex in chosen] == [ex.index for ex in expected]


def test_sparse_rows_score_bit_identical_to_cosine(bundle):
    texts = [ex.question for ex in bundle.splits["train"]] + list(EDGE_QUESTIONS)
    rows = TrigramRows(texts)
    for text in texts:
        vec = trigram_vector(text)
        scores = rows.cosines(vec, float(np.linalg.norm(vec)))
        assert scores.tolist() == [cosine(vec, trigram_vector(other)) for other in texts]


# texts the array build must cut into trigrams exactly as the oracle does:
# whitespace runs of every kind, 0-2 character texts, astral characters and
# characters whose lower case is longer than they are
_ODD_TEXTS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.text(st.sampled_from(" \t\n\x0b\x0c\r\x1c\x85  　"), max_size=4),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=2),
    st.text(st.sampled_from("aZ \tİẞﬃ\U0001d518\U0001f600ß"), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_ODD_TEXTS, max_size=12))
def test_array_build_matches_dense_oracle(texts):
    """Rows built three texts at a time, so rows meet chunk boundaries, and
    read after the chunk size is restored, equal the dense oracle bit for
    bit, and so do their cosines."""
    with mock.patch("sqlbench.selection._CHUNK_ROWS", 3):
        rows = TrigramRows(texts)
    assert len(rows) == len(texts)
    oracle = [trigram_vector(text) for text in texts]
    for i, (text, expected) in enumerate(zip(texts, oracle)):
        vec, norm = rows.dense(i)
        assert vec.tobytes() == expected.tobytes(), text
        assert norm == float(np.linalg.norm(expected)), text
        assert rows.cosines(vec, norm).tolist() == [cosine(vec, other) for other in oracle]


def test_empty_trigram_rows():
    rows = TrigramRows([])
    assert len(rows) == 0 and rows.norms.shape == (0,)
    with pytest.raises(IndexError):
        rows.dense(0)
    assert rows.cosines(np.zeros(EMBED_DIM), 0.0).shape == (0,)


def test_trigram_count_beyond_int16():
    """One trigram 69,998 times: a count that int16 would wrap, which the
    int32 counts hold exactly."""
    text = "a" * 70_000
    rows = TrigramRows([text, "abc"])
    vec, norm = rows.dense(0)
    expected = trigram_vector(text)
    assert vec.tobytes() == expected.tobytes()
    assert norm == float(np.linalg.norm(expected))
    assert rows.cosines(expected, norm).tolist() == [
        cosine(expected, trigram_vector(other)) for other in (text, "abc")]

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.prompts import (
    COMPACT_STYLE,
    TRP_COMPACT,
    TRP_SENTENCE,
    BudgetExceededError,
    PromptTemplate,
    TokenBudget,
    build_prompt,
    estimate_tokens,
    render_schema,
)


def read_golden(fixtures_dir, name: str) -> str:
    with open(fixtures_dir / "golden" / name, encoding="utf-8", newline="") as fp:
        return fp.read()


def test_zero_shot_envelope_matches_golden(bundle, fixtures_dir):
    target = bundle.splits["dev"][0]
    envelope = build_prompt(target, [], TRP_SENTENCE, TokenBudget(), bundle.schemas)
    assert envelope.text == read_golden(fixtures_dir, "trp_zero_shot_concert_singer.txt")
    assert envelope.shots == 0
    assert envelope.exemplar_ids == ()
    assert envelope.text.endswith("Response: ")


def test_compact_schema_matches_golden(bundle, fixtures_dir):
    rendered = render_schema(bundle.schemas["college_2"], COMPACT_STYLE)
    assert rendered == read_golden(fixtures_dir, "compact_college_2.txt")
    lines = rendered.splitlines()
    assert "Table course, columns = [*,course_id,title,dept_name,credits]" in lines
    assert "Table prereq, columns = [*,course_id,prereq_id]" in lines


def test_one_shot_same_schema_matches_golden(bundle, fixtures_dir):
    target = bundle.splits["dev"][0]
    exemplar = bundle.splits["train"][17]  # same database as the target
    envelope = build_prompt(target, [exemplar], TRP_SENTENCE, TokenBudget(), bundle.schemas)
    assert envelope.text == read_golden(fixtures_dir, "trp_one_shot_same_schema.txt")
    # schema rendered exactly once
    assert envelope.text.count("Database concert_singer contains tables") == 1
    assert envelope.shots == 1


def test_compact_single_table_has_no_key_sentences(bundle):
    schema = bundle.schemas["concert_singer"]
    rendered = render_schema(schema, COMPACT_STYLE)
    assert "primary key" not in rendered
    assert "foreign key" not in rendered
    assert rendered.splitlines()[0] == (
        "Table stadium, columns = [*,Stadium_ID,Location,Name,Capacity,Highest,Lowest,Average]"
    )


def test_cross_schema_exemplar_rendered_compactly(bundle):
    target = bundle.splits["dev"][0]  # concert_singer
    exemplar = bundle.splits["train"][0]  # college_2
    envelope = build_prompt(target, [exemplar], TRP_SENTENCE, TokenBudget(), bundle.schemas)
    # the exemplar's schema appears compactly just before its Q/Response pair
    block = "Table course, columns = [*,course_id,title,dept_name,credits]"
    assert block in envelope.text
    assert envelope.text.index(block) < envelope.text.index(exemplar.question)
    assert envelope.text.index("Database concert_singer") < envelope.text.index(block)


def test_budget_truncation_drops_from_tail(bundle):
    target = bundle.splits["dev"][0]
    exemplars = bundle.splits["train"][16:19]
    full = build_prompt(target, exemplars, TRP_SENTENCE, TokenBudget(), bundle.schemas)
    assert full.shots == 3
    tight = TokenBudget(max_context=full.token_estimate + 512 - 10, reserved_response=512)
    truncated = build_prompt(target, exemplars, TRP_SENTENCE, tight, bundle.schemas)
    assert truncated.shots < 3
    # prefix order preserved: the kept ids are the first ones supplied
    assert truncated.exemplar_ids == tuple(e.index for e in exemplars[: truncated.shots])


def test_budget_exceeded_reports_overflow(bundle):
    target = bundle.splits["dev"][0]
    with pytest.raises(BudgetExceededError) as err:
        build_prompt(target, [], TRP_SENTENCE, TokenBudget(max_context=100 + 50, reserved_response=50), bundle.schemas)
    assert err.value.overflow > 0


def test_zero_shot_single_question_prefix(bundle):
    for target in bundle.splits["dev"][:5]:
        envelope = build_prompt(target, [], TRP_SENTENCE, TokenBudget(), bundle.schemas)
        lines = [line for line in envelope.text.splitlines() if line.startswith("Q: ")]
        assert len(lines) == 1
        assert envelope.token_estimate <= 2048 - 512


def test_evidence_flag(bird_bundle):
    target = bird_bundle.splits["dev"][0]
    include = PromptTemplate(COMPACT_STYLE, include_evidence=True)
    exclude = TRP_COMPACT
    with_text = build_prompt(target, [], include, TokenBudget(), bird_bundle.schemas).text
    without_text = build_prompt(target, [], exclude, TokenBudget(), bird_bundle.schemas).text
    assert target.evidence in with_text
    assert target.evidence not in without_text
    # evidence sits between the question line and the response prefix
    assert with_text.index(target.question) < with_text.index(target.evidence)
    assert with_text.index(target.evidence) < with_text.rindex("Response: ")


def test_rendering_deterministic(bundle):
    target = bundle.splits["dev"][3]
    exemplars = bundle.splits["train"][0:2]
    a = build_prompt(target, exemplars, TRP_SENTENCE, TokenBudget(), bundle.schemas)
    b = build_prompt(target, exemplars, TRP_SENTENCE, TokenBudget(), bundle.schemas)
    assert a == b


def test_estimate_tokens_basics():
    assert estimate_tokens("") == 0
    assert estimate_tokens("x" * 300) == 100
    assert estimate_tokens("abcd") == 2  # ceil(4/3)


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200), st.text(max_size=50))
def test_estimate_tokens_monotone_over_prefixes(prefix, suffix):
    assert estimate_tokens(prefix) <= estimate_tokens(prefix + suffix)


def test_template_validation():
    with pytest.raises(ValueError, match="schema_style"):
        PromptTemplate(schema_style="weird")

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.cli import main
from sqlbench.corpus import (
    CorpusSummary,
    TrainProfile,
    emit_train_profile,
    export_corpus,
    record_line,
)
from sqlbench.datasets import DatabaseSchema, ExampleTriple, KeyRef, TableDef
from sqlbench.prompts import (
    COMPACT_STYLE,
    SENTENCE_STYLE,
    TRP_SENTENCE,
    BudgetExceededError,
    PromptTemplate,
    TokenBudget,
    build_prompt,
    estimate_tokens,
)
from sqlbench.selection import SelectionPolicy

from conftest import write_config_with_url
from helpers import load_train_profile, read_corpus


def policy(seed: int = 7) -> SelectionPolicy:
    return SelectionPolicy(strategy="random", seed=seed)


def test_fixed_zero_shot_export(bundle, tmp_path):
    out = tmp_path / "corpus.jsonl"
    summary = export_corpus(
        bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (0,), out
    )
    records = read_corpus(out)
    assert summary.records == len(bundle.splits["train"]) == len(records)
    assert summary.shot_histogram == {0: len(records)}
    for record, example in zip(records, bundle.splits["train"]):
        assert record["output"] == example.gold_sql
        assert record["meta"]["example_index"] == example.index
        assert record["meta"]["shots"] == 0
        assert record["instruction"].endswith("Response: ")


def test_export_structure_shots_plus_one_questions(bundle, tmp_path):
    out = tmp_path / "corpus_k2.jsonl"
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (2,), out)
    for record in read_corpus(out):
        questions = [
            line for line in record["instruction"].splitlines() if line.startswith("Q: ")
        ]
        assert len(questions) == record["meta"]["shots"] + 1
        assert record["instruction"].endswith("Response: ")


def test_export_deterministic_bytes(bundle, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (3,), out)
    assert a.read_bytes() == b.read_bytes()


def test_each_schema_is_rendered_once_per_style(fixtures_dir, tmp_path, monkeypatch):
    """A corpus renders each (database, style) once, and writes the bytes that
    rendering the schema afresh for every prompt writes."""
    import sqlbench.prompts as prompts
    from sqlbench.datasets import DatasetSource, load_bundle

    def fresh_bundle():
        spider = fixtures_dir / "spider"
        return load_bundle(DatasetSource("spider-fixture", "spider", spider / "tables.json",
                                         {"train": spider / "train.json"}))

    kept, afresh = tmp_path / "kept.jsonl", tmp_path / "afresh.jsonl"
    rendered = []
    render = prompts.render_schema

    def counted(schema, style):
        rendered.append((schema.db_id, style))
        return render(schema, style)

    monkeypatch.setattr(prompts, "render_schema", counted)
    bundle = fresh_bundle()
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (0, 1, 3), kept)
    assert {style for _, style in rendered} == {"sentence", "compact"}
    assert len(rendered) == len(set(rendered)) < len(bundle.splits["train"])

    # fresh fragments for every prompt: nothing is kept between prompts
    monkeypatch.setattr(prompts, "_schema_fragments", prompts._render_fragments)
    bundle = fresh_bundle()
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (0, 1, 3), afresh)
    assert kept.read_bytes() == afresh.read_bytes()


def test_corpus_matches_golden(scratch_config, tmp_path, fixtures_dir):
    """The fixture train split, exported with ``--k 0,1 --random-shot``, is
    the golden bytes: shared and cross-domain schema fragments, a budget
    truncation and every record and summary line."""
    config = write_config_with_url(scratch_config, "http://127.0.0.1:9/v1")  # never called
    assert main(["build-corpus", "--config", str(config), "--run-id", "g",
                 "--k", "0,1", "--random-shot"]) == 0
    golden = fixtures_dir / "golden" / "corpus"
    out = tmp_path / "runs" / "g" / "corpus"
    names = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def _record(example: ExampleTriple, envelope) -> dict:
    return {
        "instruction": envelope.text,
        "output": example.gold_sql,
        "meta": {
            "example_index": example.index,
            "shots": envelope.shots,
            "exemplar_ids": list(envelope.exemplar_ids),
        },
    }


# characters that JSON escapes, or that a writer could wrongly escape or
# measure: quotes, backslashes, control characters, DEL, the JavaScript line
# separators, and code points of two, three and four UTF-8 bytes
_AWKWARD = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x08", "\x1f", "\x7f",
                            "\u2028", "\u2029", "é", "漢", "\U0001f600", "\U00010000"])
_TEXT = st.text(alphabet=st.one_of(_AWKWARD, st.characters(blacklist_categories=("Cs",))),
                max_size=12)
_NAME = _TEXT.filter(bool)


@st.composite
def _prompts(draw):
    db_ids = draw(st.lists(_NAME, min_size=2, max_size=2, unique=True))
    schemas = {}
    for db_id in db_ids:
        table = draw(_NAME)
        columns = draw(st.lists(_NAME, min_size=1, max_size=3, unique_by=str.lower))
        keys = (KeyRef(table, columns[0]),) if draw(st.booleans()) else ()
        schemas[db_id] = DatabaseSchema(db_id, (TableDef(table, tuple(columns)),), keys, ())
    examples = [
        ExampleTriple(index, draw(_TEXT), draw(_TEXT), draw(st.sampled_from(db_ids)),
                      evidence=draw(st.none() | _TEXT))
        for index in range(draw(st.integers(1, 5)))
    ]
    template = PromptTemplate(draw(st.sampled_from([SENTENCE_STYLE, COMPACT_STYLE])),
                              include_evidence=draw(st.booleans()))
    budget = TokenBudget(max_context=draw(st.integers(20, 400)), reserved_response=0)
    return examples[0], examples[1:], template, budget, schemas


@settings(max_examples=300, deadline=None)
@given(_prompts())
def test_fragment_written_record_is_json_dumps(case):
    target, exemplars, template, budget, schemas = case
    try:
        envelope = build_prompt(target, exemplars, template, budget, schemas)
    except BudgetExceededError as exc:
        alone = build_prompt(target, [], template, TokenBudget(10**6, 0), schemas)
        assert exc.overflow == alone.token_estimate - budget.available > 0
        return
    assert envelope.token_estimate == estimate_tokens(envelope.text) <= budget.available
    assert record_line(target, envelope) == json.dumps(_record(target, envelope),
                                                       ensure_ascii=False)
    if envelope.shots < len(exemplars):
        # the exemplars kept are as many as fit
        more = build_prompt(target, exemplars[:envelope.shots + 1], template,
                            TokenBudget(10**6, 0), schemas)
        assert more.token_estimate > budget.available


def test_a_lone_surrogate_raises_as_encoding_the_whole_prompt(bundle, tmp_path):
    """A lone surrogate in any piece of a prompt makes ``build_prompt`` raise
    what encoding the whole prompt raises; one in the target's gold SQL,
    which no prompt holds, fails the corpus write."""
    target = bundle.splits["dev"][0]  # concert_singer
    same, cross = bundle.splits["train"][17], bundle.splits["train"][0]  # college_2
    odd = ExampleTriple(99, "q", "SELECT c FROM t", "odd")

    def with_odd(mark):
        return {**bundle.schemas,
                "odd": DatabaseSchema("odd", (TableDef(f"t{mark}", ("c",)),), (), ())}

    cases = {
        "target question": lambda mark: (
            replace(target, question=f"How {mark} many?"), [same, cross], bundle.schemas),
        "exemplar gold": lambda mark: (
            target, [same, replace(cross, gold_sql=f"SELECT '{mark}'")], bundle.schemas),
        "cross-domain schema": lambda mark: (target, [same, odd], with_odd(mark)),
    }
    for name, case in cases.items():
        stand_in, exemplars, schemas = case("\x01")
        text = build_prompt(stand_in, exemplars, TRP_SENTENCE, TokenBudget(10**6, 0), schemas).text
        with pytest.raises(UnicodeEncodeError) as whole:
            estimate_tokens(text.replace("\x01", "\ud800"))
        odd_target, exemplars, schemas = case("\ud800")
        with pytest.raises(UnicodeEncodeError) as err:
            build_prompt(odd_target, exemplars, TRP_SENTENCE, TokenBudget(), schemas)
        assert err.value.args == whole.value.args, name

    split = [replace(bundle.splits["train"][0], gold_sql="SELECT '\ud800'")]
    with pytest.raises(UnicodeEncodeError):
        export_corpus(split, bundle, TRP_SENTENCE, policy(), (0,), tmp_path / "corpus.jsonl")


def test_export_seed_changes_bytes(bundle, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(seed=1), (3,), a)
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(seed=2), (3,), b)
    assert a.read_bytes() != b.read_bytes()


def test_no_self_leakage(bundle, tmp_path):
    out = tmp_path / "corpus.jsonl"
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (5,), out)
    for record in read_corpus(out):
        assert record["meta"]["example_index"] not in record["meta"]["exemplar_ids"]


def test_every_instruction_within_budget(bundle, tmp_path):
    out = tmp_path / "corpus.jsonl"
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (5,), out)
    for record in read_corpus(out):
        assert estimate_tokens(record["instruction"]) <= 2048 - 512


def test_over_budget_examples_skipped_with_reason(bundle, tmp_path):
    out = tmp_path / "corpus.jsonl"
    summary = export_corpus(
        bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (0,), out,
        budget=TokenBudget(max_context=560, reserved_response=512),
    )
    assert summary.records + len(summary.skipped) == len(bundle.splits["train"])
    assert summary.skipped, "tight budget should skip at least one example"
    for entry in summary.skipped:
        assert "over budget" in entry["reason"]


def test_empty_split(bundle, tmp_path):
    out = tmp_path / "corpus.jsonl"
    summary = export_corpus([], bundle, TRP_SENTENCE, policy(), (0,), out)
    assert summary.records == 0
    assert summary.shot_histogram == {}
    assert out.read_text() == ""


def test_random_shot_histogram(bundle, tmp_path):
    from sqlbench.prompts import TRP_COMPACT

    out = tmp_path / "corpus.jsonl"
    # compact schema rendering keeps every k below the budget, so the
    # histogram reflects the drawn shot counts exactly
    summary = export_corpus(
        bundle.splits["train"], bundle, TRP_COMPACT, policy(seed=11), (0, 1, 3, 5), out,
    )
    assert set(summary.shot_histogram) <= {0, 1, 3, 5}
    assert sum(summary.shot_histogram.values()) == summary.records


class TestTrainProfile:
    def test_default_profile_values(self, tmp_path):
        path = emit_train_profile(TrainProfile(), tmp_path / "profile.yaml")
        text = path.read_text()
        loaded = load_train_profile(path)
        assert loaded.lora_rank == 64
        assert loaded.lora_alpha == 32
        assert loaded.learning_rate == 0.0002
        assert loaded.epochs == 8
        assert loaded.max_source_length == 2048
        assert loaded.max_target_length == 512
        assert "lora_rank: 64" in text

    def test_qlora_toggle(self, tmp_path):
        path = emit_train_profile(TrainProfile(method="qlora"), tmp_path / "q.yaml")
        loaded = load_train_profile(path)
        assert loaded.method == "qlora"
        assert loaded == TrainProfile(method="qlora")

    def test_roundtrip(self, tmp_path):
        profile = TrainProfile(method="qlora", lora_rank=16, lora_alpha=8,
                               learning_rate=1e-4, epochs=3, model_name="qwen-7b")
        path = emit_train_profile(profile, tmp_path / "p.yaml")
        assert load_train_profile(path) == profile

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainProfile(method="full-finetune")
        with pytest.raises(ValueError):
            TrainProfile(epochs=0)
        with pytest.raises(ValueError):
            TrainProfile(learning_rate=-0.1)


def test_summary_to_dict_shape():
    summary = CorpusSummary(
        records=2, shot_histogram={0: 1, 3: 1}, token_min=10, token_max=20,
        token_mean=15.0, skipped=[],
    )
    payload = summary.to_dict()
    assert payload["records"] == 2
    assert payload["shot_histogram"] == {"0": 1, "3": 1}
    assert payload["token_estimate"]["mean"] == 15.0


def test_export_with_similarity_strategy(bundle, tmp_path):
    out = tmp_path / "sim.jsonl"
    sim_policy = SelectionPolicy(strategy="question-similarity", seed=3)
    summary = export_corpus(
        bundle.splits["train"], bundle, TRP_SENTENCE, sim_policy, (2,), out
    )
    assert summary.records == len(bundle.splits["train"])
    for record in read_corpus(out):
        assert record["meta"]["example_index"] not in record["meta"]["exemplar_ids"]

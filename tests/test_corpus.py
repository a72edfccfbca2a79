from __future__ import annotations

import pytest

from sqlbench.corpus import (
    CorpusSummary,
    TrainProfile,
    emit_train_profile,
    export_corpus,
)
from sqlbench.prompts import TRP_SENTENCE, TokenBudget, estimate_tokens
from sqlbench.selection import SelectionPolicy

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

    monkeypatch.setattr(prompts, "_schema_text", render)
    bundle = fresh_bundle()
    export_corpus(bundle.splits["train"], bundle, TRP_SENTENCE, policy(), (0, 1, 3), afresh)
    assert kept.read_bytes() == afresh.read_bytes()


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

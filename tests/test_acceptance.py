"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``.
"""

from __future__ import annotations

import hashlib
import json
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sqlbench.corpus import TrainProfile, emit_train_profile, export_corpus
from sqlbench.datasets import (
    DatabaseSchema,
    DatasetBundle,
    DifficultyLabel,
    ExampleTriple,
    TableDef,
)
from sqlbench.cli import main as cli_main
from sqlbench.inference import Prediction, read_predictions
from sqlbench.metrics import EvalRecord, ScoreOptions, score_ex, score_run
from sqlbench.prompts import (
    COMPACT_STYLE,
    TRP_SENTENCE,
    TokenBudget,
    build_prompt,
    estimate_tokens,
    render_schema,
)
from sqlbench.reporting import OVERALL, PLAIN, compare, format_rate, render_summary, summarize
from sqlbench.selection import SelectionPolicy
from sqlbench.sqlkit import SqlParseError, classify_difficulty, em_match, parse_sql
from sqlbench.stub import StubBehavior, StubServer

from conftest import answers_from_examples, cli_child_env, write_config_with_url
from helpers import load_train_profile, read_corpus


def _checked(num: int, name: str, limit_s: float | None = None):
    """Decorator: time the criterion, print one PASS/FAIL line, enforce the
    runtime bound."""

    def wrap(fn):
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"ACCEPTANCE {num} ({name}): FAIL\n")
                raise
            elapsed = time.monotonic() - start
            sys.__stdout__.write(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]\n")
            if limit_s is not None:
                assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s (limit {limit_s}s)"

        return run

    return wrap


def test_1_prompt_fidelity(bundle, fixtures_dir):
    @_checked(1, "prompt fidelity", limit_s=1.0)
    def criterion():
        target = bundle.splits["dev"][0]
        envelope = build_prompt(target, [], TRP_SENTENCE, TokenBudget(), bundle.schemas)
        with open(fixtures_dir / "golden" / "trp_zero_shot_concert_singer.txt",
                  encoding="utf-8", newline="") as fp:
            golden = fp.read()
        assert envelope.text == golden, "zero-shot envelope differs from the pinned golden file"
        compact = render_schema(bundle.schemas["college_2"], COMPACT_STYLE)
        lines = compact.splitlines()
        assert "Table course, columns = [*,course_id,title,dept_name,credits]" in lines
        assert "Table prereq, columns = [*,course_id,prereq_id]" in lines
        with open(fixtures_dir / "golden" / "compact_college_2.txt",
                  encoding="utf-8", newline="") as fp:
            golden_compact = fp.read()
        assert compact == golden_compact

    criterion()


def test_2_em_conformance(bundle, fixtures_dir):
    @_checked(2, "EM conformance suite", limit_s=5.0)
    def criterion():
        pairs = json.loads((fixtures_dir / "em_pairs.json").read_text())["pairs"]
        assert len(pairs) >= 50
        disagreements = []
        for pair in pairs:
            schema = bundle.schemas[pair["db"]]
            gold = parse_sql(pair["gold"], schema)
            try:
                got = em_match(parse_sql(pair["pred"], schema), gold)
            except SqlParseError:
                got = False
            if got != pair["match"]:
                disagreements.append(pair["id"])
        assert not disagreements, f"EM disagrees with the oracle on pairs {disagreements}"

    criterion()


def test_3_ex_conformance(bundle, fixtures_dir, db_file, tmp_path):
    @_checked(3, "EX conformance suite", limit_s=30.0)
    def criterion():
        pairs = json.loads((fixtures_dir / "ex_pairs.json").read_text())["pairs"]
        assert len(pairs) >= 30
        checksum_before = hashlib.sha256(db_file.read_bytes()).hexdigest()
        disagreements = []
        for pair in pairs:
            db = tmp_path / "absent.sqlite" if pair.get("db") == "missing" else db_file
            result = score_ex(pair["pred"], pair["gold"], db, timeout_s=1.5)
            expect = pair["expect"]
            if expect == "true":
                ok = result.ex is True and result.failure is None
            elif expect == "false":
                ok = result.ex is False and result.failure is None
            elif expect == "db-unavailable":
                ok = result.ex is None and result.failure == "db-unavailable"
            else:
                ok = result.ex is False and result.failure == expect
            if not ok:
                disagreements.append(pair["id"])
        assert not disagreements, f"EX disagrees with hand verdicts on pairs {disagreements}"
        assert hashlib.sha256(db_file.read_bytes()).hexdigest() == checksum_before

    criterion()


def test_4_metric_sanity(bundle):
    @_checked(4, "metric sanity")
    def criterion():
        examples = bundle.splits["dev"]
        gold_echo = {
            ex.index: Prediction(ex.index, ex.gold_sql, ex.gold_sql, 0.0, 1)
            for ex in examples
        }
        records = score_run(examples, gold_echo, bundle, ScoreOptions(timeout_s=10))
        summary = summarize(records, "gold-echo", "fp")
        assert summary.buckets[OVERALL].em_rate() == 1
        assert summary.buckets[OVERALL].ex_rate() == 1
        assert format_rate(summary.buckets[OVERALL].em_rate()) == "1.000"
        assert format_rate(summary.buckets[OVERALL].ex_rate()) == "1.000"

        garbled = {
            ex.index: Prediction(ex.index, "### not sql ###", "### not sql ###", 0.0, 1)
            for ex in examples
        }
        records = score_run(examples, garbled, bundle, ScoreOptions(timeout_s=10))
        summary = summarize(records, "garbled", "fp")
        assert summary.buckets[OVERALL].em_rate() == 0
        assert summary.buckets[OVERALL].ex_rate() == 0
        assert format_rate(summary.buckets[OVERALL].em_rate()) == "0.000"
        assert format_rate(summary.buckets[OVERALL].ex_rate()) == "0.000"

        # EM implies EX for predictions parse-identical to gold incl. literals
        records = score_run(examples, gold_echo, bundle, ScoreOptions(timeout_s=10))
        for record in records:
            if record.em:
                assert record.ex is True

    criterion()


def test_5_difficulty_bucketing(bundle, fixtures_dir):
    @_checked(5, "difficulty bucketing")
    def criterion():
        rows = json.loads((fixtures_dir / "hardness_pinned.json").read_text())["queries"]
        assert len(rows) == 40
        disagreements = [
            row["id"]
            for row in rows
            if classify_difficulty(parse_sql(row["query"], bundle.schemas[row["db"]])).label
            != row["label"]
        ]
        assert not disagreements, f"hardness disagrees with the oracle on {disagreements}"
        for split in ("train", "dev"):
            labels = [
                classify_difficulty(
                    parse_sql(ex.gold_sql, bundle.schemas[ex.db_id])
                ).label
                for ex in bundle.splits[split]
            ]
            from collections import Counter

            assert sum(Counter(labels).values()) == len(bundle.splits[split])

    criterion()


def test_6_aggregation_arithmetic():
    @_checked(6, "aggregation arithmetic")
    def criterion():
        def records_for(shape):
            out, index = [], 0
            for label, (n, correct) in shape.items():
                for i in range(n):
                    verdict = i < correct
                    out.append(
                        EvalRecord(index, verdict, verdict, None,
                                   DifficultyLabel("spider4", label), None)
                    )
                    index += 1
            return out

        summary = summarize(
            records_for({"easy": (10, 9), "medium": (10, 7), "hard": (10, 5), "extra": (10, 3)}),
            "run", "fp",
        )
        assert [format_rate(summary.buckets[l].ex_rate())
                for l in ("easy", "medium", "hard", "extra")] == [
            "0.900", "0.700", "0.500", "0.300",
        ]
        assert format_rate(summary.buckets[OVERALL].ex_rate()) == "0.600"
        table = render_summary(summary, PLAIN)
        assert table.splitlines()[2].split() == [
            "metric", "Easy", "Medium", "Hard", "Extra", "Overall",
        ]

        base = summarize(records_for({l: (250, 0) for l in ("easy", "medium", "hard", "extra")}),
                         "base", "fp")
        tuned = summarize(
            records_for({"easy": (250, 222), "medium": (250, 160),
                         "hard": (250, 122), "extra": (250, 122)}),
            "lora", "fp",
        )
        delta = compare(base, tuned)
        assert delta.ex_deltas["overall"] == Fraction(626, 1000)
        assert format_rate(delta.ex_deltas["overall"], signed=True) == "+0.626"

    criterion()


@pytest.fixture(scope="module")
def synthetic_bundle():
    """10,000 tiny examples over one database for the mixing statistics."""
    schema = DatabaseSchema(
        db_id="tiny",
        tables=(TableDef(name="t", columns=("a", "b")),),
        primary_keys=(),
        foreign_keys=(),
    )
    examples = [
        ExampleTriple(index=i, question=f"What is row {i}?",
                      gold_sql=f"SELECT a FROM t WHERE a > {i}", db_id="tiny")
        for i in range(10_000)
    ]
    return DatasetBundle(
        name="synthetic", dialect="spider",
        splits={"train": examples}, schemas={"tiny": schema},
    )


def test_7_corpus_determinism_and_mixing(synthetic_bundle, bundle, tmp_path):
    @_checked(7, "corpus determinism and mixing")
    def criterion():
        policy = SelectionPolicy(strategy="random", k=0, seed=13)
        split = synthetic_bundle.splits["train"]
        out_a = tmp_path / "mix_a.jsonl"
        out_b = tmp_path / "mix_b.jsonl"
        summary_a = export_corpus(
            split, synthetic_bundle, TRP_SENTENCE, policy, (0, 1, 3, 5), out_a
        )
        export_corpus(
            split, synthetic_bundle, TRP_SENTENCE, policy, (0, 1, 3, 5), out_b
        )
        assert out_a.read_bytes() == out_b.read_bytes(), "fixed-seed export not byte-identical"
        assert summary_a.records == 10_000
        for count in (0, 1, 3, 5):
            share = summary_a.shot_histogram.get(count, 0) / 10_000
            assert abs(share - 0.25) <= 0.02, f"shot count {count} at {share:.3f}"
        assert summary_a.token_max <= 2048 - 512
        for record in read_corpus(out_a)[:500]:
            assert record["meta"]["example_index"] not in record["meta"]["exemplar_ids"]

        # no self-leakage under nonzero k on the real fixture split
        fixture_out = tmp_path / "fixture_k5.jsonl"
        export_corpus(
            bundle.splits["train"], bundle, TRP_SENTENCE,
            SelectionPolicy(strategy="random", seed=13), (5,), fixture_out,
        )
        for record in read_corpus(fixture_out):
            assert record["meta"]["example_index"] not in record["meta"]["exemplar_ids"]
            assert estimate_tokens(record["instruction"]) <= 2048 - 512

    criterion()


def test_8_end_to_end_stub_run(scratch_config, tmp_path, bundle):
    @_checked(8, "end-to-end stub run", limit_s=60.0)
    def criterion():
        answers = answers_from_examples(bundle.splits["dev"] + bundle.splits["train"])

        def pipeline(output_dir: Path, server) -> dict[str, bytes]:
            config = write_config_with_url(scratch_config, server.base_url)
            base = ["--config", str(config), "--run-id", "e2e",
                    "--output-dir", str(output_dir)]
            assert cli_main(["ingest", *base]) == 0
            assert cli_main(["build-corpus", *base, "--k", "0,1", "--random-shot"]) == 0
            assert cli_main(["predict", *base, "--split", "dev", "--shots", "0"]) == 0
            predictions = output_dir / "e2e" / "predictions" / "dev_shots0.jsonl"
            assert cli_main(["evaluate", *base, "--split", "dev",
                             "--predictions", str(predictions)]) == 0
            run_dir = output_dir / "e2e"
            return {
                str(p.relative_to(run_dir)): p.read_bytes()
                for p in sorted(run_dir.rglob("*"))
                if p.is_file()
            }

        with StubServer(StubBehavior(answers=answers)) as server:
            artifacts_a = pipeline(tmp_path / "out_a", server)
            artifacts_b = pipeline(tmp_path / "out_b", server)
        assert set(artifacts_a) == set(artifacts_b)
        for name in artifacts_a:
            assert artifacts_a[name] == artifacts_b[name], f"artifact differs: {name}"
        # gold-echo pipeline scores perfectly
        summary = json.loads(
            artifacts_a["reports/dev_summary.json"].decode("utf-8")
        )
        assert summary["buckets"]["overall"]["em_rate"] == "1.000"
        assert summary["buckets"]["overall"]["ex_rate"] == "1.000"

        # interrupt-and-resume: exactly one record per example
        with StubServer(StubBehavior(answers=answers, delay_s=0.25)) as slow:
            config = write_config_with_url(scratch_config, slow.base_url)
            argv = [sys.executable, "-m", "sqlbench.cli", "predict",
                    "--config", str(config), "--run-id", "resume",
                    "--output-dir", str(tmp_path / "out_r"),
                    "--split", "dev", "--shots", "0"]
            stderr_path = tmp_path / "predict.stderr"
            with open(stderr_path, "wb") as stderr:
                proc = subprocess.Popen(argv, env=cli_child_env(),
                                        stdout=subprocess.DEVNULL, stderr=stderr)
            partial = tmp_path / "out_r" / "resume" / "predictions" / "dev_shots0.jsonl.partial"
            deadline = time.time() + 30
            while time.time() < deadline and proc.poll() is None:
                if partial.is_file() and len(partial.read_text().splitlines()) >= 2:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            assert partial.is_file(), (
                "no partial file produced before the kill; child stderr:\n"
                + stderr_path.read_text(errors="replace")
            )
        with StubServer(StubBehavior(answers=answers)) as fast:
            config = write_config_with_url(scratch_config, fast.base_url)
            assert cli_main(["predict", "--config", str(config), "--run-id", "resume",
                             "--output-dir", str(tmp_path / "out_r"),
                             "--split", "dev", "--shots", "0"]) == 0
        final = read_predictions(tmp_path / "out_r" / "resume" / "predictions" / "dev_shots0.jsonl")
        assert sorted(final) == list(range(20))

    criterion()


def test_9_train_profile_emission(tmp_path):
    @_checked(9, "train profile emission")
    def criterion():
        path = emit_train_profile(TrainProfile(), tmp_path / "profile.yaml")
        loaded = load_train_profile(path)
        assert loaded.lora_rank == 64
        assert loaded.lora_alpha == 32
        assert loaded.learning_rate == 0.0002
        assert loaded.epochs == 8
        assert loaded.max_source_length == 2048
        assert loaded.max_target_length == 512
        assert loaded == TrainProfile()
        qlora = emit_train_profile(TrainProfile(method="qlora"), tmp_path / "q.yaml")
        assert load_train_profile(qlora).method == "qlora"

    criterion()

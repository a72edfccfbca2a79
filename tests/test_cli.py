from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from sqlbench.cli import COMMANDS, main
from sqlbench.inference import read_predictions
from sqlbench.stub import StubBehavior, StubServer

from conftest import answers_from_examples, cli_child_env, write_config_with_url
from helpers import Faults, load_both_ways


@pytest.fixture()
def gold_stub(bundle):
    answers = answers_from_examples(bundle.splits["dev"] + bundle.splits["train"])
    with StubServer(StubBehavior(answers=answers)) as server:
        yield server


def run_cli(*argv) -> int:
    return main(list(argv))


def replace_in(path: Path, old: str, new: str) -> None:
    """Rewrite a text file with each ``old`` in it replaced by ``new``."""
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def test_cli_runs_without_requests(tmp_path):
    """The package's only HTTP client is the standard library's."""
    probe = ("import sys, sqlbench.cli;"
             " print(sorted(m for m in sys.modules if m.startswith('requests')))")
    done = subprocess.run([sys.executable, "-c", probe], env=cli_child_env(), cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_traced_boundary_resolves():
    """The benchmark tracer wraps each (module, attribute) in its BOUNDARIES;
    each must name a function that exists where the tracer looks it up."""
    import importlib
    import runpy
    from pathlib import Path

    spans = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    boundaries = runpy.run_path(str(spans))["BOUNDARIES"]
    missing = [f"{module}.{attr}" for module, attr, _ in boundaries
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert len(boundaries) >= 30 and not missing


def test_ingest_writes_manifest(scratch_config, tmp_path, capsys):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    rc = run_cli("ingest", "--config", str(config), "--run-id", "t")
    assert rc == 0
    manifest = json.loads((tmp_path / "runs" / "t" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["splits"] == {"dev": 20, "train": 19}
    assert manifest["databases"]["concert_singer"]["has_file"] is True
    out = capsys.readouterr().out
    assert "1 of 2" in out


def test_ingest_missing_examples_file(scratch_config, capsys):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, "dev.json", "missing_dev.json")
    rc = run_cli("ingest", "--config", str(config), "--run-id", "t")
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing_dev.json" in err


def _malform(case: str, tables: list, dev: list):
    if case == "catalog-object":
        return tables[0], dev
    if case == "split-object":
        return tables, {"db_id": "concert_singer"}
    if case == "record-not-object":
        return tables, [1, *dev]
    if case == "column-name":
        tables[0]["column_names_original"][1] = [0, 5]
    elif case == "table-name":
        tables[0]["table_names_original"][0] = 7
    elif case == "catalog-db-id":
        tables[0]["db_id"] = 7  # beside string ones, which it cannot be sorted with
    # a lone surrogate: a string with no UTF-8 form
    elif case == "column-name-text":
        tables[0]["column_names_original"][1][1] += "\ud800"
    elif case == "table-name-text":
        tables[0]["table_names_original"][0] += "\ud800"
    elif case == "catalog-db-id-text":
        tables[0]["db_id"] += "\ud800"
    elif case.endswith("-text"):
        dev[0][case.removesuffix("-text")] += "\ud800"
    else:
        dev[0][case] = [dev[0][case]]
    return tables, dev


@pytest.mark.parametrize("case, named", [
    ("catalog-object", "schema catalog {tables}: not a JSON list of databases"),
    ("split-object", "split dev ({dev}): not a JSON list of records"),
    ("record-not-object", "split dev: record 0: not a JSON object"),
    ("column-name", "catalog entry 0: column names of table 'stadium' must be non-empty strings"),
    ("table-name", "catalog entry 0: table name must be a non-empty string"),
    ("catalog-db-id", "catalog entry 0: db_id must be a non-empty string"),
    ("db_id", "split dev: record 0: unknown db_id ['concert_singer']"),
    ("question", "split dev: record 0: question must be a non-empty string"),
    ("query", "split dev: record 0: SQL query must be a non-empty string"),
    ("column-name-text", "catalog entry 0: name 'Stadium_ID\\ud800' does not encode to UTF-8"),
    ("table-name-text", "catalog entry 0: name 'stadium\\ud800' does not encode to UTF-8"),
    ("catalog-db-id-text",
     "catalog entry 0: name 'concert_singer\\ud800' does not encode to UTF-8"),
    ("db_id-text", "split dev: record 0: unknown db_id 'concert_singer\\ud800'"),
    ("question-text", "split dev: record 0: question does not encode to UTF-8"),
    ("query-text", "split dev: record 0: SQL query does not encode to UTF-8"),
], ids=["catalog-object", "split-object", "record-not-object", "column-name", "table-name",
        "catalog-db-id", "db-id", "question", "query", "column-name-text", "table-name-text",
        "catalog-db-id-text", "db-id-text", "question-text", "query-text"])
def test_ingest_malformed_dataset_json_is_a_dataset_error(
        scratch_config, tmp_path, fixtures_dir, capsys, case, named):
    """Each problem is one ``dataset:`` line, from ingest and from every stage
    that reads the dataset, before any request or file."""
    tables, dev = _malform(
        case, json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8")),
        json.loads((fixtures_dir / "spider" / "dev.json").read_text(encoding="utf-8")))
    tables_path, dev_path = tmp_path / "tables.json", tmp_path / "dev.json"
    tables_path.write_text(json.dumps(tables), encoding="utf-8")
    dev_path.write_text(json.dumps(dev), encoding="utf-8")
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, str(fixtures_dir / "spider" / "tables.json"), str(tables_path))
    replace_in(config, str(fixtures_dir / "spider" / "dev.json"), str(dev_path))
    for stage in (("ingest",), ("predict", "--split", "dev", "--shots", "1"),
                  ("build-corpus", "--split", "dev", "--k", "1")):
        assert run_cli(*stage, "--config", str(config), "--run-id", "t") == 1, stage
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert f"dataset: {named.format(tables=tables_path, dev=dev_path)}" in lines, err
        assert all(line.startswith("dataset: ") for line in lines), err
    assert not (tmp_path / "runs").exists()


def test_a_predictions_line_that_does_not_encode_to_utf8_is_a_prediction_error(
        scratch_config, tmp_path, gold_stub, caplog):
    """With EX on, a record whose SQL holds a lone surrogate is skipped as it
    is read, and its example scores as a prediction error."""
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    common = ("--config", str(config), "--run-id", "t", "--split", "dev")
    assert run_cli("predict", *common, "--shots", "0") == 0
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    lines = out.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    lines[3] = json.dumps({**record, "extracted_sql": record["extracted_sql"] + " -- \ud800"})
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert run_cli("evaluate", *common, "--predictions", str(out)) == 0
    assert [r.message for r in caplog.records if "undecodable" in r.message] == [
        f"{out}:4: skipping undecodable prediction line"]
    records = tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl"
    failures = [json.loads(line)["failure"]
                for line in records.read_text(encoding="utf-8").splitlines()]
    assert failures == [None] * 3 + ["prediction-error"] + [None] * 16


def test_stages_read_only_the_splits_they_use(scratch_config, tmp_path, gold_stub, capsys):
    """A malformed split file leaves the stages that do not use it running;
    ingest, which checks every split, still reports it."""
    bad = tmp_path / "test.json"
    bad.write_text("[{not json", encoding="utf-8")
    replace_in(scratch_config, "    dev:", f"    test: {bad}\n    dev:")
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    common = ("--config", str(config), "--run-id", "t")
    assert run_cli("build-corpus", *common, "--split", "train", "--k", "1") == 0
    assert run_cli("predict", *common, "--split", "dev", "--shots", "1") == 0
    predictions = tmp_path / "runs" / "t" / "predictions" / "dev_shots1.jsonl"
    assert run_cli("evaluate", *common, "--split", "dev", "--predictions", str(predictions)) == 0
    capsys.readouterr()
    assert run_cli("ingest", *common) == 1
    assert capsys.readouterr().err.startswith(f"dataset: split test ({bad}): ")


def test_stages_build_only_the_schemas_their_splits_name(scratch_config, tmp_path, gold_stub,
                                                         fixtures_dir, capsys):
    """A malformed catalog entry that no record of the loaded splits names
    leaves the other stages running; ingest, which builds every entry,
    still reports it, in one line: the records that name it add none."""
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8"))
    entries[1]["primary_keys"] = [999]  # college_2, which only train names
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(entries), encoding="utf-8")
    replace_in(scratch_config, str(fixtures_dir / "spider" / "tables.json"), str(tables))
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    common = ("--config", str(config), "--run-id", "t", "--split", "dev")
    assert run_cli("build-corpus", *common, "--k", "1") == 0
    assert run_cli("predict", *common, "--shots", "0") == 0
    predictions = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    assert run_cli("evaluate", *common, "--predictions", str(predictions)) == 0
    capsys.readouterr()
    assert run_cli("ingest", *common[:4]) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("dataset:")] == [
        "dataset: catalog entry 1: college_2: primary key column index 999 out of range"]


_EXISTS_GOLD = "SELECT name FROM singer WHERE EXISTS (SELECT 1)"


def test_ingest_parses_each_distinct_gold_once(bundle, monkeypatch):
    """The grammar check reports every example of an unparseable gold, and
    checks each distinct gold text once, even where two databases share it;
    it never resolves a gold against a schema."""
    from dataclasses import replace

    import sqlbench.sqlkit
    from sqlbench.cli import _unparseable_golds

    dev = bundle.splits["dev"]
    rows = dev + [replace(ex, index=100 + ex.index) for ex in dev]
    rows += [replace(dev[0], index=200 + i, gold_sql=_EXISTS_GOLD) for i in range(3)]
    rows += [replace(dev[0], index=300, db_id="college_2", gold_sql=_EXISTS_GOLD),
             replace(dev[1], index=301, db_id="college_2")]
    checked, parsed = [], []

    def counted(sql):
        checked.append(sql)
        return check_sql(sql)

    check_sql = sqlbench.sqlkit.check_sql
    monkeypatch.setattr(sqlbench.sqlkit, "check_sql", counted)
    monkeypatch.setattr(sqlbench.sqlkit, "parse_sql", lambda sql, schema: parsed.append(sql))
    assert _unparseable_golds(rows) == [200, 201, 202, 300]
    assert sorted(checked) == sorted({ex.gold_sql for ex in rows})
    assert parsed == []


# ingest's output on the fixture dataset with _EXISTS_GOLD added to both
# splits in both databases; MANIFEST stands for the manifest's path and
# FINGERPRINT for the run config's fingerprint, which hold the temporary paths
_PINNED_INGEST_STDERR = (
    "WARNING sqlbench: split dev: 2 gold queries outside the clause grammar"
    " (excluded from EM, kept for EX): [3, 21]\n"
    "WARNING sqlbench: split train: 3 gold queries outside the clause grammar"
    " (excluded from EM, kept for EX): [0, 7, 21]\n"
)
_PINNED_INGEST_STDOUT = (
    "manifest written to MANIFEST\n"
    "  split dev: 22 examples\n"
    "  split train: 22 examples\n"
    "  databases: 1 of 2 files found\n"
)
_PINNED_MANIFEST = """{
  "config_fingerprint": "FINGERPRINT",
  "databases": {
    "college_2": {
      "has_file": false,
      "tables": 11
    },
    "concert_singer": {
      "has_file": true,
      "tables": 4
    }
  },
  "dialect": "spider",
  "name": "spider-fixture",
  "splits": {
    "dev": 22,
    "train": 22
  }
}
"""


def test_ingest_output_is_pinned(scratch_config, tmp_path, fixtures_dir):
    """Ingest's warning lines, its stdout and the manifest's bytes, from a
    real CLI process, on golds outside the grammar in both splits and in a
    database with and one without a database file."""
    from sqlbench.runconfig import load_run_config

    spider = fixtures_dir / "spider"
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    text = config.read_text(encoding="utf-8")
    for split, spots in (("dev", (3, None)), ("train", (0, 7, None))):
        rows = json.loads((spider / f"{split}.json").read_text(encoding="utf-8"))
        for n, at in enumerate(spots):
            db_id = ("concert_singer", "college_2")[n % 2]
            row = {"db_id": db_id, "question": f"Is there a {split} singer {n}?",
                   "query": _EXISTS_GOLD}
            rows.insert(len(rows) if at is None else at, row)
        path = tmp_path / f"{split}.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        text = text.replace(str(spider / f"{split}.json"), str(path))
    config.write_text(text, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "sqlbench.cli", "ingest", "--config", str(config),
         "--run-id", "pin"],
        env=cli_child_env(), cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
        encoding="utf-8")
    assert done.returncode == 0, done.stderr
    manifest = tmp_path / "runs" / "pin" / "manifest.json"
    assert done.stderr == _PINNED_INGEST_STDERR
    assert done.stdout == _PINNED_INGEST_STDOUT.replace("MANIFEST", str(manifest))
    fingerprint = load_run_config(config).fingerprint()
    assert manifest.read_bytes() == _PINNED_MANIFEST.replace("FINGERPRINT", fingerprint).encode()


def test_default_run_id_is_utc_stamp_and_fingerprint(scratch_config, tmp_path):
    """Without --run-id a run is named ``<UTC %Y%m%dT%H%M%SZ>-<fingerprint[:8]>``."""
    from sqlbench.runconfig import load_run_config

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    before = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    assert run_cli("ingest", "--config", str(config)) == 0
    after = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    [run] = (tmp_path / "runs").iterdir()
    stamp, fingerprint = run.name.split("-")
    assert re.fullmatch(r"\d{8}T\d{6}Z", stamp) and before <= stamp <= after
    assert fingerprint == load_run_config(config).fingerprint()[:8]
    assert (run / "manifest.json").is_file()


def test_seed_flag_overrides_the_config_seed(scratch_config, tmp_path):
    """--seed replaces the config's seed: it is in the fingerprint, and it
    draws the random exemplars."""
    from dataclasses import replace as replaced

    from sqlbench.runconfig import load_run_config

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    corpora = {}
    for seed in ("42", "7", None):
        run_id = f"seed-{seed}"
        argv = ["build-corpus", "--config", str(config), "--run-id", run_id, "--k", "1"]
        assert run_cli(*argv, *(["--seed", seed] if seed else [])) == 0
        run_cli("ingest", "--config", str(config), "--run-id", run_id,
                *(["--seed", seed] if seed else []))
        manifest = json.loads(
            (tmp_path / "runs" / run_id / "manifest.json").read_text(encoding="utf-8"))
        corpora[seed] = (manifest["config_fingerprint"],
                         (tmp_path / "runs" / run_id / "corpus" / "train_k1.jsonl").read_bytes())
    base = load_run_config(config)
    assert base.seed == 42
    assert corpora[None] == corpora["42"]
    assert corpora["7"][0] == replaced(base, seed=7).fingerprint() != corpora["42"][0]
    assert corpora["7"][1] != corpora["42"][1]


def test_ingest_deterministic(scratch_config, tmp_path):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    run_cli("ingest", "--config", str(config), "--run-id", "a")
    run_cli("ingest", "--config", str(config), "--run-id", "b")
    a = (tmp_path / "runs" / "a" / "manifest.json").read_bytes()
    b = (tmp_path / "runs" / "b" / "manifest.json").read_bytes()
    assert a == b


def test_build_corpus_k_list(scratch_config, tmp_path):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    rc = run_cli(
        "build-corpus", "--config", str(config), "--run-id", "t",
        "--k", "0,1,3,5",
    )
    assert rc == 0
    corpus_dir = tmp_path / "runs" / "t" / "corpus"
    files = sorted(p.name for p in corpus_dir.glob("*.jsonl"))
    assert files == ["train_k0.jsonl", "train_k1.jsonl", "train_k3.jsonl", "train_k5.jsonl"]
    assert not list(corpus_dir.glob("*.partial")) and not list(corpus_dir.glob("*.writing"))


def test_build_corpus_exports_each_k_once(scratch_config, tmp_path, monkeypatch, capsys):
    """A count named twice in ``--k`` is one corpus, exported and reported
    once, in the order the counts are first named."""
    import sqlbench.cli

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    exported = []

    def counted(*args, original=sqlbench.cli.export_corpus, **kwargs):
        exported.append(args[4])
        return original(*args, **kwargs)

    monkeypatch.setattr(sqlbench.cli, "export_corpus", counted)
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "t",
                   "--k", "1,0,1,0") == 0
    assert exported == [(1,), (0,)]
    corpus_dir = tmp_path / "runs" / "t" / "corpus"
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == [
        f"corpus {corpus_dir / 'train_k1.jsonl'}", f"corpus {corpus_dir / 'train_k0.jsonl'}"]


def test_build_corpus_random_shot(scratch_config, tmp_path):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    rc = run_cli("build-corpus", "--config", str(config), "--run-id", "t", "--random-shot")
    assert rc == 0
    assert (tmp_path / "runs" / "t" / "corpus" / "train_random_shot.jsonl").is_file()


@pytest.mark.parametrize("strategy", ["question-similarity", "dual-similarity"])
def test_build_corpus_builds_one_index_for_all_jobs(scratch_config, tmp_path, bundle,
                                                    monkeypatch, strategy):
    """`--random-shot --k 3` embeds the split once, and its corpora are the
    bytes each job writes with an index of its own."""
    import sqlbench.cli
    import sqlbench.corpus
    from sqlbench.corpus import export_corpus
    from sqlbench.runconfig import load_run_config

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, "strategy: random", f"strategy: {strategy}")
    builds = []
    for module in (sqlbench.cli, sqlbench.corpus):
        def counted(*args, original=module.build_index, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, "build_index", counted)
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "t",
                   "--random-shot", "--k", "3") == 0
    assert len(builds) == 1

    run_config = load_run_config(config)
    corpus_dir = tmp_path / "runs" / "t" / "corpus"
    policy = run_config.selection.policy(default_seed=run_config.seed)
    for name, choices in (("train_random_shot.jsonl", (0, 1, 3, 5)), ("train_k3.jsonl", (3,))):
        reference = tmp_path / f"reference_{name}"
        export_corpus(bundle.splits["train"], bundle, run_config.prompt, policy, choices,
                      reference)
        assert (corpus_dir / name).read_bytes() == reference.read_bytes(), name
    assert len(builds) == 3


def test_build_corpus_k0_on_an_empty_split_writes_an_empty_corpus(scratch_config, tmp_path,
                                                                  fixtures_dir, capsys):
    """An empty split offers no exemplar candidate, not -1: ``--k 0`` writes
    an empty corpus, and ``--k 1`` is still refused."""
    empty = tmp_path / "empty.json"
    empty.write_text("[]", encoding="utf-8")
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, str(fixtures_dir / "spider" / "train.json"), str(empty))
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "t", "--k", "0") == 0
    assert (tmp_path / "runs" / "t" / "corpus" / "train_k0.jsonl").read_bytes() == b""
    capsys.readouterr()
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "u", "--k", "1") == 1
    assert capsys.readouterr().err.splitlines() == [
        "config: --k 1 exceeds the 0 exemplar candidates in the pool"]


def test_build_corpus_at_k0_builds_no_index(scratch_config, monkeypatch):
    import sqlbench.cli
    import sqlbench.corpus

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, "strategy: random", "strategy: question-similarity")
    for module in (sqlbench.cli, sqlbench.corpus):
        monkeypatch.setattr(module, "build_index", None)  # calling it fails the run
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "t",
                   "--k", "0") == 0


def test_predict_stub_run(scratch_config, tmp_path, gold_stub):
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    rc = run_cli("predict", "--config", str(config), "--run-id", "t",
                 "--split", "dev", "--shots", "0")
    assert rc == 0
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    predictions = read_predictions(out)
    assert len(predictions) == 20
    assert sorted(predictions) == list(range(20))
    # re-running is a no-op once complete
    assert run_cli("predict", "--config", str(config), "--run-id", "t",
                   "--split", "dev", "--shots", "0") == 0


def test_evaluate_gold_echo(scratch_config, tmp_path, gold_stub, capsys):
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0")
    pred_file = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    rc = run_cli("evaluate", "--config", str(config), "--run-id", "t",
                 "--split", "dev", "--predictions", str(pred_file))
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.000" in out
    summary = json.loads(
        (tmp_path / "runs" / "t" / "reports" / "dev_summary.json").read_text(encoding="utf-8")
    )
    assert summary["buckets"]["overall"]["ex_rate"] == "1.000"
    assert summary["buckets"]["overall"]["em_rate"] == "1.000"


def test_evaluate_em_only_marks_ex_na(scratch_config, tmp_path, gold_stub, capsys):
    replace_in(scratch_config, "ex: true", "ex: false")
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0")
    pred_file = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    rc = run_cli("evaluate", "--config", str(config), "--run-id", "t",
                 "--split", "dev", "--predictions", str(pred_file))
    assert rc == 0
    out = capsys.readouterr().out
    ex_line = [l for l in out.splitlines() if l.startswith("ex")][0]
    assert "n/a" in ex_line


def test_evaluate_skips_mistyped_prediction_fields(scratch_config, tmp_path, bundle, caplog):
    """A prediction line whose fields have the wrong types is skipped with a
    warning and scored as a missing prediction, not a crash."""
    dev = bundle.splits["dev"]
    lines = [json.dumps({"example_index": 0, "extracted_sql": 5}),
             json.dumps({"example_index": 1, "extracted_sql": None})]
    lines += [json.dumps({"example_index": ex.index, "extracted_sql": ex.gold_sql})
              for ex in dev[2:]]
    pred_file = tmp_path / "preds.jsonl"
    pred_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    with caplog.at_level("WARNING"):
        assert run_cli("evaluate", "--config", str(config), "--run-id", "t",
                       "--split", "dev", "--predictions", str(pred_file)) == 0
    assert sum("undecodable" in rec.message for rec in caplog.records) == 2
    records_file = tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl"
    records = [json.loads(line) for line in records_file.read_text(encoding="utf-8").splitlines()]
    assert [(r["em"], r["ex"]) for r in records[:2]] == [(False, False)] * 2
    assert all(r["ex"] for r in records[2:])


def test_gold_outside_the_grammar_is_in_the_records_not_the_summary(
        scratch_config, tmp_path, fixtures_dir, caplog, capsys):
    """A gold outside the clause grammar keeps its EX result in the records
    file, with no difficulty label, and evaluate warns that no summary
    bucket counts it."""
    spider = fixtures_dir / "spider"
    rows = json.loads((spider / "dev.json").read_text(encoding="utf-8"))[:3]
    rows.append({"db_id": "concert_singer", "question": "Is there a singer?",
                 "query": _EXISTS_GOLD})
    dev = tmp_path / "dev.json"
    dev.write_text(json.dumps(rows), encoding="utf-8")
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    replace_in(config, str(spider / "dev.json"), str(dev))
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("".join(
        json.dumps({"example_index": n, "extracted_sql": row["query"]}) + "\n"
        for n, row in enumerate(rows)), encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert run_cli("evaluate", "--config", str(config), "--run-id", "t", "--split", "dev",
                       "--predictions", str(predictions)) == 0
    assert [rec.message for rec in caplog.records] == [
        "1 records lack a difficulty label; excluded from summary"]
    records_file = tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl"
    records = [json.loads(line) for line in records_file.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 4
    assert (records[3]["ex"], records[3]["difficulty"]) == (True, None)
    summary = json.loads(
        (tmp_path / "runs" / "t" / "reports" / "dev_summary.json").read_text(encoding="utf-8"))
    assert summary["buckets"]["overall"]["n"] == 3
    assert summary["buckets"]["overall"]["ex_correct"] == 3


def test_compare_identical_runs(scratch_config, tmp_path, gold_stub, capsys):
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0")
    pred_file = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    run_cli("evaluate", "--config", str(config), "--run-id", "t",
            "--split", "dev", "--predictions", str(pred_file))
    records = tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl"
    rc = run_cli("compare", "--base", str(records), "--target", str(records))
    assert rc == 0
    out = capsys.readouterr().out
    assert "+0.000" in out


def test_compare_gives_the_delta_of_the_summaries_evaluate_wrote(scratch_config, tmp_path,
                                                                 bundle, gold_stub, capsys):
    """The records of a gold-echo run and of a run that echoes only half the
    golds compare as the difference of the rates in their summaries."""
    from fractions import Fraction

    from sqlbench.reporting import format_rate

    half = answers_from_examples(bundle.splits["dev"][::2])
    with StubServer(StubBehavior(answers=half)) as half_stub:
        for run_id, stub in (("gold", gold_stub), ("half", half_stub)):
            config = write_config_with_url(scratch_config, stub.base_url)
            run_cli("predict", "--config", str(config), "--run-id", run_id, "--split", "dev")
            run_cli("evaluate", "--config", str(config), "--run-id", run_id, "--split", "dev",
                    "--predictions", str(tmp_path / "runs" / run_id / "predictions"
                                         / "dev_shots0.jsonl"))
    runs = {run_id: tmp_path / "runs" / run_id for run_id in ("gold", "half")}
    out = tmp_path / "delta.json"
    assert run_cli("compare", "--base", str(runs["gold"] / "eval" / "dev_records.jsonl"),
                   "--target", str(runs["half"] / "eval" / "dev_records.jsonl"),
                   "--out", str(out)) == 0
    summaries = {run_id: json.loads(
                     (run / "reports" / "dev_summary.json").read_text(encoding="utf-8"))
                 for run_id, run in runs.items()}
    delta = json.loads(out.read_text(encoding="utf-8"))
    assert delta["scheme"] == "spider4" and delta["base_run"].endswith("dev_records.jsonl")

    def rate(counts: dict, metric: str):
        scored = counts[f"{metric}_scored"]
        return Fraction(counts[f"{metric}_correct"], scored) if scored else None

    for metric in ("em", "ex"):
        expected = {}
        for label, counts in summaries["gold"]["buckets"].items():
            base, target = rate(counts, metric), rate(summaries["half"]["buckets"][label], metric)
            expected[label] = "n/a" if None in (base, target) else format_rate(target - base,
                                                                               signed=True)
        assert delta[f"{metric}_deltas"] == expected
    assert delta["ex_deltas"]["overall"].startswith("-")
    assert capsys.readouterr().out.endswith(f"delta report: {out}\n")


def _records_file(path, labels):
    """A records file of one correct record per difficulty label, indexed
    from 0; a label is a (scheme, label) pair or None."""
    from sqlbench.datasets import DifficultyLabel
    from sqlbench.metrics import EvalRecord, write_eval_records

    write_eval_records([
        EvalRecord(n, True, True, None,
                   None if label is None else DifficultyLabel(*label), None)
        for n, label in enumerate(labels)], path)
    return path


_SPIDER_RUN = [("spider4", "easy"), ("spider4", "hard"), None]


def test_compare_out_writes_the_structured_delta(tmp_path, capsys):
    from sqlbench.metrics import read_eval_records
    from sqlbench.reporting import STRUCTURED, compare_records, render_delta

    records = _records_file(tmp_path / "records.jsonl", _SPIDER_RUN)
    out = tmp_path / "delta" / "report.json"
    assert run_cli("compare", "--base", str(records), "--target", str(records),
                   "--out", str(out)) == 0
    assert capsys.readouterr().out.endswith(f"delta report: {out}\n")
    read = read_eval_records(records)
    assert out.read_text(encoding="utf-8") == render_delta(
        compare_records(read, read, str(records), str(records)), STRUCTURED)
    assert json.loads(out.read_text(encoding="utf-8"))


def test_compare_scheme_mismatch_exits_nonzero(tmp_path, capsys):
    """A Spider run and a BIRD run of as many examples label each example
    differently."""
    spider = _records_file(tmp_path / "spider.jsonl", _SPIDER_RUN)
    bird = _records_file(tmp_path / "bird.jsonl", [("bird3", "simple")] * 3)
    rc = run_cli("compare", "--base", str(spider), "--target", str(bird))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"cannot compare: example 0 is easy in {spider} but simple in {bird}\n")


_GOOD_LINE = '{"example_index": 0, "em": true, "ex": true, "ves_ratio": null,' \
             ' "difficulty": {"scheme": "spider4", "label": "easy"}, "failure": null}\n'


@pytest.mark.parametrize("content, named", [
    (None, "No such file"),
    ("SELECT 1\n", ":1: not an evaluation record: Expecting value"),
    ("[0]\n", ":1: not an evaluation record: "),
    (_GOOD_LINE.replace('"failure"', '"reason"'), ":1: not an evaluation record: "),
    (_GOOD_LINE.replace('"em": true', '"em": "true"'), ":1: not an evaluation record: wrong"),
    (_GOOD_LINE.replace('"easy"', '"trivial"'), ":1: not an evaluation record: label"),
    (_GOOD_LINE * 2, ":2: example 0 recorded twice"),
    ([("spider4", "easy"), ("spider4", "hard")], "score different examples"),
    ([("spider4", "easy"), ("spider4", "extra"), None], "example 1 is "),
    ([None] * 3, "carries a difficulty label"),
], ids=["missing-file", "not-json", "not-an-object", "unknown-key", "wrong-type",
        "unknown-label", "repeated-index", "other-examples", "other-difficulty", "no-label"])
def test_compare_refusal_is_one_line(tmp_path, capsys, content, named):
    good = _records_file(tmp_path / "good.jsonl", _SPIDER_RUN)
    bad = tmp_path / "bad.jsonl"
    if isinstance(content, str):
        bad.write_text(content, encoding="utf-8")
    elif content is not None:
        _records_file(bad, content)
    if content == [None] * 3:  # neither run labels an example
        _records_file(good, content)
    for base, target in ((bad, good), (good, bad)):
        assert run_cli("compare", "--base", str(base), "--target", str(target)) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot compare: ") and named in err, err
        assert len(err.splitlines()) == 1 and str(bad) in err, err


@pytest.mark.parametrize("examples", ['{"question": "q", "query": "SELECT 1"}', "[1, 2]",
                                      '[{"query": "SELECT 1"}]', "not json"],
                         ids=["object", "numbers", "no-question", "not-json"])
def test_stub_examples_that_are_not_records_are_a_config_error(tmp_path, capsys, examples):
    path = tmp_path / "examples.json"
    path.write_text(examples, encoding="utf-8")
    assert run_cli("stub", "--examples", str(path), "--port", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config: --examples {path}: ") and len(err.splitlines()) == 1, err


def test_stub_serves_gold_from_examples_and_the_fallback_otherwise(tmp_path):
    """``sqlbench stub --examples``, as a process: a Spider ``query`` and a
    BIRD ``SQL`` come back for their questions; a record without a string
    gold, and a question not in the file, get ``--fallback``. SIGINT, and
    SIGTERM as ``kill`` sends, each stop it with exit 0."""
    import http.client
    from urllib.parse import urlsplit

    examples = tmp_path / "examples.json"
    examples.write_text(json.dumps([
        {"question": "How many singers?", "query": "SELECT count(*) FROM singer"},
        {"question": "Which schools?", "SQL": "SELECT name FROM school"},
        {"question": "No gold here?", "SQL": None},
    ]), encoding="utf-8")
    for stop in (signal.SIGINT, signal.SIGTERM):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sqlbench.cli", "stub", "--examples", str(examples),
             "--port", "0", "--fallback", "SELECT 'fallback'"],
            env=cli_child_env(), cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, encoding="utf-8")
        # a banner that never arrives ends in a kill, which ends the read
        watchdog = threading.Timer(30, proc.kill)
        watchdog.start()
        try:
            banner = proc.stdout.readline()
            # no banner: the child has exited, so its stderr ends
            assert banner.endswith(" (2 canned answers)\n"), banner or proc.stderr.read()
            url = urlsplit(banner.split()[4])
            conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)

            def ask(question: str) -> str:
                body = {"messages": [{"role": "user", "content": f"Q: {question}\nResponse: "}]}
                conn.request("POST", url.path + "/chat/completions", json.dumps(body),
                             {"Content-Type": "application/json"})
                return json.loads(conn.getresponse().read())["choices"][0]["message"]["content"]

            try:
                assert [ask(q) for q in ("How many singers?", "Which schools?", "No gold here?",
                                         "Who?")] == [
                    "SELECT count(*) FROM singer", "SELECT name FROM school",
                    "SELECT 'fallback'", "SELECT 'fallback'"]
            finally:
                conn.close()
            proc.send_signal(stop)
            assert proc.wait(timeout=10) == 0, (stop, proc.stderr.read())
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()


@pytest.mark.parametrize("argv", [["predict", "--config", "x", "--shots", "abc"], ["predict"],
                                  ["compare", "--base", "a.jsonl"], [], ["bogus"],
                                  ["stub", "--port", "70000"], ["stub", "--port", "-1"]],
                         ids=["bad-int", "no-config", "no-target", "no-command",
                              "unknown-command", "port-over", "port-negative"])
def test_argument_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("sqlbench")


@pytest.mark.parametrize("argv", [["ingest", "--config", "CONFIG", "--run-id", "t"],
                                  ["ingest", "--config", "BAD", "--run-id", "t"],
                                  ["predict", "-h"], ["predict"]],
                         ids=["ingest", "ingest-bad-config", "predict-help", "predict-usage"])
def test_the_installed_entry_point_matches_the_in_process_call(
        scratch_config, tmp_path, monkeypatch, capsys, argv):
    """``python -m sqlbench.cli``, as the ``sqlbench`` script does, calls
    ``main()`` with no argv, so it reads ``sys.argv``: its exit status, stdout
    and ``config:`` and usage lines are those of ``main(argv)``."""
    monkeypatch.setenv("COLUMNS", "80")
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    bad = tmp_path / "bad.yaml"
    bad.write_text(config.read_text(encoding="utf-8").replace("seed: 42", "seed: abc"),
                   encoding="utf-8")
    argv = [{"CONFIG": str(config), "BAD": str(bad)}.get(arg, arg) for arg in argv]
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code or 0
    out, err = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "sqlbench.cli", *argv], env=cli_child_env(),
                          cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
                          encoding="utf-8")

    def refusals(text: str) -> list[str]:
        return [line for line in text.splitlines()
                if line.startswith(("config:", "usage:", "sqlbench"))]

    assert (done.returncode, done.stdout) == (code, out)
    assert refusals(done.stderr) == refusals(err)
    assert out or refusals(err)


def test_cli_surface_is_pinned(monkeypatch, capsys, fixtures_dir):
    """`sqlbench -h`, each command's -h, and the errors for an unknown
    command and for none, at 80 columns, are the golden bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    parts = []
    for argv in [["-h"], *([command, "-h"] for command in COMMANDS), ["bogus"], []]:
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        out, err = capsys.readouterr()
        line = " ".join(["sqlbench", *argv])
        parts.append(f"$ {line}\n# exit {exit_info.value.code}, stdout:\n{out}# stderr:\n{err}")
    golden = fixtures_dir / "golden" / "cli_surface.txt"
    assert _argparse_neutral("".join(parts)) == _argparse_neutral(
        golden.read_text(encoding="utf-8"))


def _argparse_neutral(text: str) -> str:
    """Help text with two differences between Python versions evened out:
    3.10 titles the options section "optional arguments", and 3.13 keeps a
    usage's closing "..." on the line before it."""
    return re.sub(r"\n +\.\.\.\n", " ...\n", text.replace("optional arguments:", "options:"))


def test_emit_train_profile_cli(tmp_path):
    out = tmp_path / "profile.yaml"
    rc = run_cli("emit-train-profile", "--method", "qlora", "--out", str(out))
    assert rc == 0
    from helpers import load_train_profile

    profile = load_train_profile(out)
    assert profile.method == "qlora"
    assert profile.lora_rank == 64


def test_train_profile_flags_are_the_profile_fields(capsys):
    from dataclasses import fields

    from sqlbench.corpus import TrainProfile

    with pytest.raises(SystemExit) as exit_info:
        run_cli("emit-train-profile", "-h")
    assert exit_info.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {"--help", "--out"} | {
        "--" + f.name.replace("_", "-") for f in fields(TrainProfile)}


def test_unknown_train_profile_method_is_refused(tmp_path, capsys):
    """So is a learning rate that is not a finite number."""
    out = tmp_path / "profile.yaml"
    for flag, value, named in (("--method", "foo", "unknown tuning method 'foo'"),
                               ("--learning-rate", "nan", "learning_rate must be positive"),
                               ("--learning-rate", "inf", "learning_rate must be positive"),
                               ("--learning-rate", "-inf", "learning_rate must be positive")):
        assert run_cli("emit-train-profile", f"{flag}={value}", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"config: invalid profile: {named}" + (
            " and finite\n" if flag == "--learning-rate" else "\n")
        assert list(tmp_path.iterdir()) == []


def test_config_error_lists_all_problems(tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text(
        """
dataset:
  name: x
  dialect: unknown-dialect
  tables: nowhere.json
  splits:
    dev: missing.json
selection:
  strategy: telepathy
""",
        encoding="utf-8",
    )
    rc = run_cli("ingest", "--config", str(config), "--run-id", "t")
    assert rc == 1
    err = capsys.readouterr().err
    assert "dialect" in err
    assert "nowhere.json" in err
    assert "missing.json" in err
    assert "strategy" in err


def test_interrupt_and_resume_predict(scratch_config, tmp_path, bundle):
    """Kill predict mid-run, resume, and verify exactly one record each."""
    answers = answers_from_examples(bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers, delay_s=0.25)) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        argv = [
            sys.executable, "-m", "sqlbench.cli", "predict",
            "--config", str(config), "--run-id", "t", "--split", "dev", "--shots", "0",
        ]
        stderr_path = tmp_path / "predict.stderr"
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(argv, env=cli_child_env(), cwd=str(tmp_path),
                                    stdout=subprocess.DEVNULL, stderr=stderr)
        partial = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl.partial"
        deadline = time.time() + 30
        while time.time() < deadline and proc.poll() is None:
            if partial.is_file() and len(partial.read_text(encoding="utf-8").splitlines()) >= 2:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert partial.is_file(), (
            "no partial file produced before the kill; child stderr:\n"
            + stderr_path.read_text(errors="replace", encoding="utf-8")
        )
        interrupted = len(read_predictions(partial))
        assert 0 < interrupted < 20

    # resume against a fresh stub (fast this time)
    with StubServer(StubBehavior(answers=answers)) as server2:
        config2 = write_config_with_url(scratch_config, server2.base_url)
        rc = run_cli("predict", "--config", str(config2), "--run-id", "t",
                     "--split", "dev", "--shots", "0")
        assert rc == 0
        # only the remaining examples were requested on resume
        assert server2.request_count == 20 - interrupted
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    lines = out.read_text(encoding="utf-8").splitlines()
    indices = [json.loads(line)["example_index"] for line in lines]
    assert indices == list(range(20))  # one per example, no duplicates, sorted
    assert not partial.is_file()


def test_errored_predictions_are_retried_on_rerun(scratch_config, tmp_path, bundle, capsys):
    """An outage leaves errored records in the finished file; a rerun requests
    exactly those again, and once none is left the file is complete."""
    argv = ["predict", "--run-id", "t", "--split", "dev", "--shots", "0"]
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    with StubServer(StubBehavior(always_status=500)) as down:
        config = write_config_with_url(scratch_config, down.base_url)
        capsys.readouterr()
        assert run_cli(*argv, "--config", str(config)) == 0
        assert (f"20 predictions written to {out} (20 errored; rerun predict to retry them)"
                in capsys.readouterr().out)
    assert all(p.error is not None for p in read_predictions(out).values())
    answers = answers_from_examples(bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers)) as healthy:
        config = write_config_with_url(scratch_config, healthy.base_url)
        capsys.readouterr()
        assert run_cli(*argv, "--config", str(config)) == 0
        printed = capsys.readouterr().out
        assert "already complete" not in printed
        assert f"20 predictions written to {out}\n" in printed
        assert healthy.request_count == 20
        predictions = read_predictions(out)
        assert sorted(predictions) == list(range(20))
        assert all(p.error is None for p in predictions.values())
        assert run_cli(*argv, "--config", str(config)) == 0
        assert "already complete" in capsys.readouterr().out
        assert healthy.request_count == 20


def test_leftover_append_log_is_merged_into_the_final_file(scratch_config, tmp_path, bundle,
                                                           capsys):
    """A rerun killed after retrying every error but before replacing the
    final file leaves the successes in the append log; the next run must
    rewrite the final file from it, not call the stale file complete."""
    from sqlbench.artifacts import appending
    from sqlbench.inference import Prediction, append_prediction, write_predictions

    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    out.parent.mkdir(parents=True)
    partial = out.with_name(out.name + ".partial")
    write_predictions(out, {
        index: Prediction(index, "", "", 0.0, 1, error="HTTP 500") for index in range(20)
    })
    with appending(partial) as log:
        for index in range(20):
            append_prediction(log, Prediction(index, "", "SELECT 'retried'", 0.0, 1))
    with StubServer(StubBehavior(answers={})) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        capsys.readouterr()
        assert run_cli("predict", "--config", str(config), "--run-id", "t",
                       "--split", "dev", "--shots", "0") == 0
        assert "already complete" not in capsys.readouterr().out
        assert server.request_count == 0
    predictions = read_predictions(out)
    assert sorted(predictions) == list(range(20))
    assert all(p.error is None and p.extracted_sql == "SELECT 'retried'"
               for p in predictions.values())
    assert not partial.is_file()


def test_torn_last_line_of_the_append_log_loses_no_record(scratch_config, tmp_path, gold_stub,
                                                         capsys):
    """A kill mid-append leaves a torn last line in the log, torn inside an
    ASCII character or inside the two bytes of "é"; the rerun's first record
    must not join it, and the file is complete only with every target."""
    from sqlbench.inference import Prediction

    config = write_config_with_url(scratch_config, gold_stub.base_url)
    for run_id, sql in (("t", "SELECT 'kept'"), ("u", "SELECT 'café'")):
        out = tmp_path / "runs" / run_id / "predictions" / "dev_shots0.jsonl"
        out.parent.mkdir(parents=True)
        partial = out.with_name(out.name + ".partial")
        records = [Prediction(index, "", sql, 0.0, 1).to_json().encode("utf-8")
                   for index in range(3)]
        tear = records[2].index("é".encode("utf-8")) + 1 if "é" in sql else 25
        partial.write_bytes(records[0] + b"\n" + records[1] + b"\n" + records[2][:tear])
        argv = ["predict", "--config", str(config), "--run-id", run_id, "--split", "dev",
                "--shots", "0"]
        requests = gold_stub.request_count
        assert run_cli(*argv) == 0, run_id
        assert sorted(read_predictions(out)) == list(range(20))
        assert gold_stub.request_count == requests + 18
        assert not partial.exists()
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert "already complete" in capsys.readouterr().out
        assert gold_stub.request_count == requests + 18


def test_final_file_without_every_target_is_not_complete(scratch_config, tmp_path, gold_stub):
    """Complete means a record for every target, not merely no errored record."""
    from sqlbench.inference import Prediction, write_predictions

    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    out.parent.mkdir(parents=True)
    write_predictions(out, {i: Prediction(i, "", "SELECT 'kept'", 0.0, 1) for i in range(0, 20, 2)})
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    assert run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev",
                   "--shots", "0") == 0
    assert gold_stub.request_count == 10
    assert sorted(read_predictions(out)) == list(range(20))


def test_errored_records_in_the_append_log_are_retried(scratch_config, tmp_path, bundle):
    """Resuming from an append log re-requests its errored records only."""
    from sqlbench.artifacts import appending
    from sqlbench.inference import Prediction, append_prediction

    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    out.parent.mkdir(parents=True)
    partial = out.with_name(out.name + ".partial")
    with appending(partial) as log:
        for index in range(15):
            failed = index % 3 == 0  # 0, 3, 6, 9, 12
            append_prediction(log, Prediction(
                index, "", "" if failed else "SELECT 'kept'", 0.0, 1,
                error="HTTP 503" if failed else None))
    answers = answers_from_examples(bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers)) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        assert run_cli("predict", "--config", str(config), "--run-id", "t",
                       "--split", "dev", "--shots", "0") == 0
        assert server.request_count == 5 + 5  # the errored five, the unrecorded five
    predictions = read_predictions(out)
    assert sorted(predictions) == list(range(20))
    assert all(p.error is None for p in predictions.values())
    kept = [i for i, p in predictions.items() if p.extracted_sql == "SELECT 'kept'"]
    assert kept == [i for i in range(15) if i % 3]


def test_target_over_budget_is_an_errored_prediction(scratch_config, tmp_path, fixtures_dir,
                                                     gold_stub, capsys):
    """A target whose prompt exceeds the budget even at k=0 is recorded as an
    error without a request; the others are predicted, evaluate scores it as a
    prediction error, and a rerun finds the run complete: no rerun can send it."""
    spider = fixtures_dir / "spider"
    tables = json.loads((spider / "tables.json").read_text(encoding="utf-8"))
    columns = [[0, f"reading_{i:03d}_value"] for i in range(300)]
    tables.append({"db_id": "wide", "table_names_original": ["wide"],
                   "column_names_original": [[-1, "*"], *columns]})
    dev = json.loads((spider / "dev.json").read_text(encoding="utf-8"))[:2]
    dev.append({"db_id": "wide", "question": "How many rows?",
                "query": "SELECT count(*) FROM wide"})
    (tmp_path / "tables.json").write_text(json.dumps(tables), encoding="utf-8")
    (tmp_path / "dev.json").write_text(json.dumps(dev), encoding="utf-8")
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    replace_in(config, str(spider / "tables.json"), str(tmp_path / "tables.json"))
    replace_in(config, str(spider / "dev.json"), str(tmp_path / "dev.json"))
    argv = ["--config", str(config), "--run-id", "t", "--split", "dev"]
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"

    capsys.readouterr()
    assert run_cli("predict", *argv) == 0
    assert gold_stub.request_count == 2
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"3 predictions written to {out} (1 over budget at k=0)"
    predictions = read_predictions(out)
    assert [p.error is None for p in predictions.values()] == [True, True, False]
    assert re.fullmatch(r"prompt exceeds token budget by \d+ tokens at k=0", predictions[2].error)
    assert predictions[2].attempt_count == 0
    first = out.read_bytes()
    assert run_cli("predict", *argv) == 0
    assert out.read_bytes() == first and gold_stub.request_count == 2
    assert capsys.readouterr().out == f"predictions already complete at {out}\n"

    # with a retryable error beside it, a rerun requests only the retryable one
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "error": "http 500"})
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli("predict", *argv) == 0
    assert gold_stub.request_count == 3
    assert capsys.readouterr().out.splitlines() == [
        "resuming: 2 predictions already recorded, 1 errored ones requested again",
        f"3 predictions written to {out} (1 over budget at k=0)",
    ]
    assert out.read_bytes() == first

    capsys.readouterr()
    assert run_cli("evaluate", *argv, "--predictions", str(out)) == 0
    records = (tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert [json.loads(line)["failure"] for line in records][2] == "prediction-error"


def test_predict_budget_reserves_the_response_it_asks_for(scratch_config, tmp_path, gold_stub,
                                                         capsys):
    """Each prompt leaves room for ``endpoint.max_response_tokens``: with 1900
    of the 2048-token context asked for the response, no fixture prompt fits."""
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    replace_in(config, "endpoint:\n", "endpoint:\n  max_response_tokens: 1900\n")
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    capsys.readouterr()
    assert run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev") == 0
    assert gold_stub.request_count == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"20 predictions written to {out} (20 over budget at k=0)"
    predictions = read_predictions(out).values()
    assert all(p.error.endswith(" at k=0") and p.attempt_count == 0 for p in predictions)


def test_scalar_config_section_is_a_config_error(tmp_path, capsys, fixtures_dir):
    config = tmp_path / "scalar.yaml"
    config.write_text(
        f"""
dataset:
  name: x
  dialect: spider
  tables: {fixtures_dir / 'spider' / 'tables.json'}
  splits:
    dev: {fixtures_dir / 'spider' / 'dev.json'}
prompt: sentence
""",
        encoding="utf-8",
    )
    rc = run_cli("ingest", "--config", str(config), "--run-id", "t")
    assert rc == 1
    assert "expected a mapping" in capsys.readouterr().err
    load_both_ways(config)


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "latin1.yaml"
    config.write_bytes(b"dataset:\n  name: caf\xe9\n")
    assert run_cli("ingest", "--config", str(config), "--run-id", "t") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config: cannot read config file {config}: "), err


def test_bird_dialect_end_to_end(tmp_path, fixtures_dir, bird_bundle, capsys):
    """EM-only bird-style run: ingested difficulty labels drive the
    simple/moderate/challenge report columns, evidence goes into prompts."""
    answers = answers_from_examples(bird_bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers)) as server:
        config = tmp_path / "bird.yaml"
        config.write_text(
            f"""
dataset:
  name: bird-fixture
  dialect: bird
  tables: {fixtures_dir / 'bird' / 'tables.json'}
  splits:
    dev: {fixtures_dir / 'bird' / 'dev.json'}
prompt:
  schema_style: compact
  include_evidence: true
selection:
  strategy: random
  k: 0
  pool: dev
endpoint:
  base_url: {server.base_url}
  model_name: stub
  record_latency: false
metrics:
  em: true
  ex: false
output_dir: {tmp_path / 'runs'}
seed: 1
""",
            encoding="utf-8",
        )
        load_both_ways(config)
        assert run_cli("ingest", "--config", str(config), "--run-id", "b") == 0
        assert run_cli("predict", "--config", str(config), "--run-id", "b",
                       "--split", "dev", "--shots", "0") == 0
        preds = tmp_path / "runs" / "b" / "predictions" / "dev_shots0.jsonl"
        assert run_cli("evaluate", "--config", str(config), "--run-id", "b",
                       "--split", "dev", "--predictions", str(preds)) == 0
    out = capsys.readouterr().out
    header = [l for l in out.splitlines() if l.startswith("metric")][0]
    assert header.split() == ["metric", "Simple", "Moderate", "Challenge", "Overall"]
    em_line = [l for l in out.splitlines() if l.startswith("em")][0]
    assert em_line.split()[-1] == "1.000"
    ex_line = [l for l in out.splitlines() if l.startswith("ex")][0]
    assert ex_line.split()[-1] == "n/a"


class RecordingBehavior(StubBehavior):
    """Gold-echo stub behaviour that also keeps every prompt it answers."""

    def __init__(self, answers):
        super().__init__(answers=answers)
        self.prompts: list[str] = []

    def lookup(self, prompt_text: str) -> str:
        self.prompts.append(prompt_text)
        return super().lookup(prompt_text)


def test_few_shot_predict_sends_exemplars(scratch_config, tmp_path, bundle):
    train_questions = {ex.question for ex in bundle.splits["train"]}
    behavior = RecordingBehavior(answers_from_examples(bundle.splits["dev"]))
    with StubServer(behavior) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        rc = run_cli("predict", "--config", str(config), "--run-id", "t",
                     "--split", "dev", "--shots", "2")
    assert rc == 0
    predictions = read_predictions(tmp_path / "runs" / "t" / "predictions" / "dev_shots2.jsonl")
    assert sorted(predictions) == list(range(20))
    assert len(behavior.prompts) == 20
    for prompt in behavior.prompts:
        lines = prompt.splitlines()
        questions = [i for i, line in enumerate(lines) if line.startswith("Q: ")]
        assert len(questions) == 3  # two exemplars, then the target
        for i in questions[:2]:
            assert lines[i][len("Q: "):] in train_questions
            assert lines[i + 1].startswith("Response: SELECT")
        assert lines[questions[2] + 1] == "Response: "


def test_cross_split_predict_ranks_by_target_question(scratch_config, tmp_path, bundle):
    """Each dev target's one exemplar is the train question nearest its own."""
    from trigram_oracle import cosine, trigram_vector

    replace_in(scratch_config, "strategy: random", "strategy: question-similarity")
    train = bundle.splits["train"]
    dev_index = {ex.question: ex.index for ex in bundle.splits["dev"]}
    behavior = RecordingBehavior(answers_from_examples(bundle.splits["dev"]))
    with StubServer(behavior) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        assert run_cli("predict", "--config", str(config), "--run-id", "t",
                       "--split", "dev", "--shots", "1") == 0
    assert len(behavior.prompts) == 20
    same_ordinal = 0
    for prompt in behavior.prompts:
        exemplar, target = [line[len("Q: "):] for line in prompt.splitlines()
                            if line.startswith("Q: ")]
        target_vec = trigram_vector(target)
        nearest = min(train, key=lambda ex: (-cosine(target_vec, trigram_vector(ex.question)),
                                             ex.index))
        assert exemplar == nearest.question
        same_ordinal += nearest.index == dev_index[target]
    assert same_ordinal < 19


def test_predict_missing_pool_split_is_a_config_error(scratch_config, bundle, capsys):
    replace_in(scratch_config, "    train:", "    #train:")
    with StubServer(StubBehavior(answers=answers_from_examples(bundle.splits["dev"]))) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        rc = run_cli("predict", "--config", str(config), "--run-id", "t",
                     "--split", "dev", "--shots", "1")
        assert server.request_count == 0
    assert rc == 1
    assert "selection.pool split 'train' not in dataset" in capsys.readouterr().err


def test_predict_with_dual_similarity_shots_is_a_config_error(scratch_config, gold_stub,
                                                              capsys):
    """predict takes no draft SQL, so dual-similarity shots would silently be
    question-similarity ones; zero-shot predict selects nothing and runs."""
    replace_in(scratch_config, "strategy: random", "strategy: dual-similarity")
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    argv = ["predict", "--config", str(config), "--run-id", "t", "--split", "dev"]
    assert run_cli(*argv, "--shots", "1") == 1
    assert gold_stub.request_count == 0
    assert "'dual-similarity'" in capsys.readouterr().err
    assert run_cli(*argv, "--shots", "0") == 0
    assert gold_stub.request_count == 20


def test_evaluate_missing_predictions_is_refused_before_any_data(scratch_config, tmp_path,
                                                                 monkeypatch, capsys):
    import sqlbench.cli

    def no_data(source):
        raise AssertionError("dataset read")

    monkeypatch.setattr(sqlbench.cli, "load_bundle", no_data)
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    assert run_cli("evaluate", "--config", str(config), "--run-id", "t", "--split", "dev",
                   "--predictions", str(tmp_path / "ghost.jsonl")) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("config:")]
    assert len(errors) == 1 and "ghost.jsonl" in errors[0] and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_build_corpus_with_no_job_is_a_config_error(scratch_config, tmp_path, capsys):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    assert run_cli("build-corpus", "--config", str(config), "--run-id", "t") == 1
    assert capsys.readouterr().err == "config: nothing to do: pass --k and/or --random-shot\n"
    assert not (tmp_path / "runs").exists()


def test_predict_to_a_url_that_is_not_http_is_a_config_error(scratch_config, tmp_path, gold_stub,
                                                             capsys):
    """Each bad value is refused at load, before any data is read."""
    url = f"base_url: {gold_stub.base_url}"
    bad_values = [  # (key, replaced, replacement)
        ("endpoint.base_url", url, "base_url: localhost:8181/v1"),
        ("endpoint.base_url", url, "base_url: http:///v1"),
        ("endpoint.base_url", url, "base_url: http://[::1/v1"),
        ("endpoint.base_url", url, "base_url: http://127.0.0.1:http/v1"),
        ("endpoint.concurrency_limit", "concurrency_limit: 4", "concurrency_limit: 0"),
        ("endpoint.temperature", "endpoint:\n", "endpoint:\n  temperature: -1\n"),
        ("endpoint.max_retries", "max_retries: 2", "max_retries: -1"),
        ("endpoint.backoff_base_s", "backoff_base_s: 0.01", "backoff_base_s: -1.0"),
        ("endpoint.timeout_s", "endpoint:\n", "endpoint:\n  timeout_s: 0\n"),
        ("endpoint.timeout_s", "endpoint:\n", "endpoint:\n  timeout_s: -1\n"),
        ("endpoint.max_response_tokens", "endpoint:\n",
         "endpoint:\n  max_response_tokens: 0\n"),
        ("metrics.timeout_s", "timeout_s: 10", "timeout_s: 0"),
        ("metrics.timeout_s", "timeout_s: 10", "timeout_s: -1"),
        # waits past a day, which overflow a sleep, a socket timeout or a deadline
        ("endpoint.timeout_s", "endpoint:\n", "endpoint:\n  timeout_s: 1.0e+300\n"),
        ("endpoint.timeout_s", "endpoint:\n", "endpoint:\n  timeout_s: 86401\n"),
        ("endpoint.backoff_base_s", "backoff_base_s: 0.01", "backoff_base_s: 1.0e+300"),
        ("endpoint.backoff_base_s", "backoff_base_s: 0.01", "backoff_base_s: " + "9" * 401),
        ("metrics.timeout_s", "timeout_s: 10", "timeout_s: " + "9" * 401),
        ("metrics.timeout_s", "timeout_s: 10", "timeout_s: 86400.5"),
        ("selection.k", "k: 0", "k: -1"),
        ("selection.strategy", "strategy: random", "strategy: telepathy"),
        ("prompt.schema_style", "schema_style: sentence", "schema_style: weird"),
    ]
    good = write_config_with_url(scratch_config, gold_stub.base_url).read_text(encoding="utf-8")
    for key, replaced, replacement in bad_values:
        assert replaced in good, (key, replaced)
        config = tmp_path / "bad.yaml"
        config.write_text(good.replace(replaced, replacement), encoding="utf-8")
        assert run_cli("predict", "--config", str(config), "--run-id", "t",
                       "--split", "dev") == 1, (key, replacement)
        section, name = key.split(".")
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith(f"config: {section}")]
        assert len(errors) == 1 and name in errors[0], (key, replacement, errors)
        assert not (tmp_path / "runs").exists(), (key, replacement)
        assert gold_stub.request_count == 0, (key, replacement)


@pytest.mark.parametrize("replaced, replacement, named", [
    ("  db_dir:", "  database_dir:", "dataset: unknown keys ['database_dir']"),
    ("metrics:\n", "metric:\n", "unknown keys ['metric']"),
    ("seed: 42", "seed: abc", "seed must be"),
    ("endpoint:\n", "endpoint:\n  temperature: hot\n", "endpoint.temperature must be"),
    ("max_retries: 2", "max_retries: x", "endpoint.max_retries must be"),
    ("k: 0", "k: three", "selection.k must be"),
    ("timeout_s: 10", "timeout_s: soon", "metrics.timeout_s must be"),
    ("pool: train", "pool: 7", "selection.pool must be"),
    # a lone surrogate: a string with no UTF-8 form; the old value becomes a comment
    ("output_dir: ", 'output_dir: "\\ud800"  # ', "output_dir does not encode to UTF-8"),
    ("name: spider-fixture", 'name: "x\\ud800"', "dataset.name does not encode to UTF-8"),
    ("model_name: stub", 'model_name: "\\ud800"', "endpoint.model_name does not encode to UTF-8"),
    # YAML's spellings of a float that is not finite
    ("endpoint:\n", "endpoint:\n  timeout_s: .nan\n",
     "endpoint.timeout_s must be a finite number, got nan"),
    ("backoff_base_s: 0.01", "backoff_base_s: .inf",
     "endpoint.backoff_base_s must be a finite number, got inf"),
    ("endpoint:\n", "endpoint:\n  temperature: .NaN\n",
     "endpoint.temperature must be a finite number, got nan"),
    ("timeout_s: 10", "timeout_s: -.inf", "metrics.timeout_s must be a finite number, got -inf"),
])
def test_misspelt_key_or_wrong_type_is_a_config_error(scratch_config, tmp_path, gold_stub,
                                                      capsys, replaced, replacement, named):
    """An unknown key at any level, or a value of the wrong type, is refused at
    load with one line naming it, before any data is read or request sent."""
    good = write_config_with_url(scratch_config, gold_stub.base_url).read_text(encoding="utf-8")
    assert good.count(replaced) == 1
    config = tmp_path / "bad.yaml"
    config.write_text(good.replace(replaced, replacement), encoding="utf-8")
    assert run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev") == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config:")]
    assert len(errors) == 1 and named in errors[0], errors
    assert not (tmp_path / "runs").exists()
    assert gold_stub.request_count == 0
    assert [f"config: {error}" for error in load_both_ways(config)] == errors


@pytest.mark.parametrize("key", ["k\udcff", "\u20acuro", "a\nb"],
                         ids=["undecodable-byte", "not-ascii", "newline"])
def test_an_api_key_that_is_not_a_header_value_is_a_config_error(
        scratch_config, tmp_path, gold_stub, monkeypatch, capsys, key):
    """A Bearer token is visible ASCII. Any other key is refused before a
    file is made or a request sent, and the error names the variable, never
    the key."""
    monkeypatch.setenv("SQLBENCH_API_KEY", key)
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    assert run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev") == 1
    assert capsys.readouterr().err == ("config: endpoint.api_key_env: SQLBENCH_API_KEY holds an"
                                       " API key that is not all visible ASCII (U+0021-U+007E)\n")
    assert not (tmp_path / "runs").exists()
    assert gold_stub.request_count == 0


@pytest.mark.parametrize("argv, flag", [
    (["predict", "--split", "dev", "--shots", "-1"], "--shots"),
    (["build-corpus", "--k", "-1"], "--k"),
    (["build-corpus", "--random-shot", "--choices", "0,-1"], "--choices"),
])
def test_negative_count_flag_is_refused_before_any_work(scratch_config, tmp_path, gold_stub,
                                                        monkeypatch, capsys, argv, flag):
    import sqlbench.cli

    def no_data(source):
        raise AssertionError("dataset read")

    config = write_config_with_url(scratch_config, gold_stub.base_url)
    with monkeypatch.context() as patched:
        patched.setattr(sqlbench.cli, "load_bundle", no_data)
        assert run_cli(*argv, "--config", str(config), "--run-id", "t") == 1
    err = capsys.readouterr().err
    assert f"{flag} must be non-negative" in err and "Traceback" not in err
    # a count past the pool's candidates is refused once the pool is read:
    # the 19-example train pool offers 18 to its own targets, 19 to dev's
    argv = [arg.replace("-1", "50") for arg in argv]
    assert run_cli(*argv, "--config", str(config), "--run-id", "t") == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("config:")]
    assert errors == [f"config: {flag} 50 exceeds the {19 if flag == '--shots' else 18}"
                      " exemplar candidates in the pool"], err
    assert not (tmp_path / "runs").exists()
    assert gold_stub.request_count == 0


@pytest.mark.parametrize("argv, config_k, refused", [
    (["predict", "--split", "train", "--shots", "18"], None, False),
    (["predict", "--split", "train", "--shots", "19"], None, True),
    (["predict", "--split", "dev", "--shots", "19"], None, False),
    (["predict", "--split", "dev"], 20, True),
    (["build-corpus", "--k", "0,18"], None, False),
    (["build-corpus", "--k", "0,19"], None, True),
    (["build-corpus", "--random-shot", "--choices", "1,19"], None, True),
], ids=["own-pool-all", "own-pool-over", "other-pool-all", "selection-k-over", "corpus-all",
        "corpus-over", "choices-over"])
def test_shot_count_is_bounded_by_the_pool_candidates(scratch_config, tmp_path, gold_stub,
                                                      capsys, argv, config_k, refused):
    """A target is never its own exemplar: the 19-example train pool offers
    18 candidates to a train target and 19 to a dev target."""
    if config_k is not None:
        replace_in(scratch_config, "k: 0", f"k: {config_k}")
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    rc = run_cli(*argv, "--config", str(config), "--run-id", "t")
    err = capsys.readouterr().err
    if not refused:
        assert rc == 0, err
        return
    assert rc == 1 and "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("config:")]
    assert len(errors) == 1 and "exceeds the" in errors[0], err
    assert not (tmp_path / "runs").exists()
    assert gold_stub.request_count == 0


def test_empty_choices_are_refused_before_any_work(scratch_config, tmp_path, gold_stub,
                                                  monkeypatch, capsys):
    import sqlbench.cli

    def no_data(source):
        raise AssertionError("dataset read")

    monkeypatch.setattr(sqlbench.cli, "load_bundle", no_data)
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    assert run_cli("build-corpus", "--random-shot", "--choices", ",", "--config", str(config),
                   "--run-id", "t") == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("config:")]
    assert len(errors) == 1 and "--choices" in errors[0] and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_predict_without_shots_takes_selection_k(scratch_config, tmp_path, bundle):
    replace_in(scratch_config, "k: 0", "k: 1")
    behavior = RecordingBehavior(answers_from_examples(bundle.splits["dev"]))
    with StubServer(behavior) as server:
        config = write_config_with_url(scratch_config, server.base_url)
        assert run_cli("predict", "--config", str(config), "--run-id", "t",
                       "--split", "dev") == 0
    predictions = tmp_path / "runs" / "t" / "predictions" / "dev_shots1.jsonl"
    assert sorted(read_predictions(predictions)) == list(range(20))
    assert len(behavior.prompts) == 20
    for prompt in behavior.prompts:
        # one exemplar, then the target
        assert sum(line.startswith("Q: ") for line in prompt.splitlines()) == 2


def test_emit_train_profile_cut_midway_leaves_nothing_at_out(tmp_path, monkeypatch):
    import sqlbench.corpus

    def dies_midway(data, stream, **kwargs):
        stream.write("method: lora\n")
        raise OSError("disk full")

    monkeypatch.setattr(sqlbench.corpus.yaml, "safe_dump", dies_midway)
    out = tmp_path / "profile.yaml"
    assert run_cli("emit-train-profile", "--out", str(out)) == 2
    assert not out.exists()


def test_interrupted_final_write_is_redone(scratch_config, tmp_path, gold_stub, monkeypatch):
    """A predictions file cut off while being written is never taken as complete."""
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    argv = ["predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0"]
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    Faults("write", 1, seed="final predictions").install(monkeypatch)
    assert run_cli(*argv) == 2
    monkeypatch.undo()
    assert not out.exists()
    assert run_cli(*argv) == 0
    assert sorted(read_predictions(out)) == list(range(20))
    assert gold_stub.request_count == 20  # the rerun reused the append log
    assert not out.with_name(out.name + ".partial").exists()

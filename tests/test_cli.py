from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import time

import pytest

from sqlbench.cli import main
from sqlbench.inference import read_predictions
from sqlbench.stub import StubBehavior, StubServer

from conftest import answers_from_examples, cli_child_env, write_config_with_url


@pytest.fixture()
def gold_stub(bundle):
    answers = answers_from_examples(bundle.splits["dev"] + bundle.splits["train"])
    with StubServer(StubBehavior(answers=answers)) as server:
        yield server


def run_cli(*argv) -> int:
    return main(list(argv))


def test_cli_runs_without_requests(tmp_path):
    """The package's only HTTP client is the standard library's."""
    probe = ("import sys, sqlbench.cli;"
             " print(sorted(m for m in sys.modules if m.startswith('requests')))")
    done = subprocess.run([sys.executable, "-c", probe], env=cli_child_env(), cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_ingest_writes_manifest(scratch_config, tmp_path, capsys):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    rc = run_cli("ingest", "--config", str(config), "--run-id", "t")
    assert rc == 0
    manifest = json.loads((tmp_path / "runs" / "t" / "manifest.json").read_text())
    assert manifest["splits"] == {"dev": 20, "train": 19}
    assert manifest["databases"]["concert_singer"]["has_file"] is True
    out = capsys.readouterr().out
    assert "1 of 2" in out


def test_ingest_missing_examples_file(scratch_config, capsys):
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    broken = config.read_text().replace("dev.json", "missing_dev.json")
    config.write_text(broken)
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
    else:
        dev[0][case] = [dev[0][case]]
    return tables, dev


@pytest.mark.parametrize("case, named", [
    ("catalog-object", "schema catalog {tables}: not a JSON list of databases"),
    ("split-object", "split dev ({dev}): not a JSON list of records"),
    ("record-not-object", "split dev: record 0: not a JSON object"),
    ("column-name", "catalog entry 0: column names of table 'stadium' must be non-empty strings"),
    ("table-name", "catalog entry 0: table name must be a non-empty string"),
    ("db_id", "split dev: record 0: unknown db_id ['concert_singer']"),
    ("question", "split dev: record 0: question must be a non-empty string"),
    ("query", "split dev: record 0: SQL query must be a non-empty string"),
], ids=["catalog-object", "split-object", "record-not-object", "column-name", "table-name",
        "db-id", "question", "query"])
def test_ingest_malformed_dataset_json_is_a_dataset_error(
        scratch_config, tmp_path, fixtures_dir, capsys, case, named):
    tables, dev = _malform(
        case, json.loads((fixtures_dir / "spider" / "tables.json").read_text()),
        json.loads((fixtures_dir / "spider" / "dev.json").read_text()))
    tables_path, dev_path = tmp_path / "tables.json", tmp_path / "dev.json"
    tables_path.write_text(json.dumps(tables))
    dev_path.write_text(json.dumps(dev))
    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    text = config.read_text()
    text = text.replace(str(fixtures_dir / "spider" / "tables.json"), str(tables_path))
    config.write_text(text.replace(str(fixtures_dir / "spider" / "dev.json"), str(dev_path)))
    assert run_cli("ingest", "--config", str(config), "--run-id", "t") == 1
    err = capsys.readouterr().err
    assert f"dataset: {named.format(tables=tables_path, dev=dev_path)}" in err.splitlines(), err
    assert all(line.startswith("dataset: ") for line in err.splitlines()), err


def test_ingest_parses_each_distinct_gold_once(bundle, monkeypatch):
    """The grammar check reports every example of an unparseable gold, and
    parses each distinct (db_id, gold_sql) once."""
    from dataclasses import replace

    import sqlbench.sqlkit
    from sqlbench.cli import _unparseable_golds

    dev = bundle.splits["dev"]
    outside = "SELECT name FROM singer WHERE EXISTS (SELECT 1)"
    rows = dev + [replace(ex, index=100 + ex.index) for ex in dev]
    rows += [replace(dev[0], index=200 + i, gold_sql=outside) for i in range(3)]
    parsed = []

    def counted(sql, schema):
        parsed.append(sql)
        return parse_sql(sql, schema)

    parse_sql = sqlbench.sqlkit.parse_sql
    monkeypatch.setattr(sqlbench.sqlkit, "parse_sql", counted)
    assert _unparseable_golds(bundle, rows) == [200, 201, 202]
    assert sorted(parsed) == sorted({ex.gold_sql for ex in rows})


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
    assert not list(corpus_dir.glob("*.partial"))


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
    config.write_text(config.read_text().replace("strategy: random", f"strategy: {strategy}"))
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


def test_build_corpus_at_k0_builds_no_index(scratch_config, monkeypatch):
    import sqlbench.cli
    import sqlbench.corpus

    config = write_config_with_url(scratch_config, "http://127.0.0.1:1/v1")
    config.write_text(config.read_text().replace("strategy: random",
                                                 "strategy: question-similarity"))
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
        (tmp_path / "runs" / "t" / "reports" / "dev_summary.json").read_text()
    )
    assert summary["buckets"]["overall"]["ex_rate"] == "1.000"
    assert summary["buckets"]["overall"]["em_rate"] == "1.000"


def test_evaluate_em_only_marks_ex_na(scratch_config, tmp_path, gold_stub, capsys):
    text = scratch_config.read_text().replace("ex: true", "ex: false")
    scratch_config.write_text(text)
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


def test_compare_identical_runs(scratch_config, tmp_path, gold_stub, capsys):
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0")
    pred_file = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    run_cli("evaluate", "--config", str(config), "--run-id", "t",
            "--split", "dev", "--predictions", str(pred_file))
    summary = tmp_path / "runs" / "t" / "reports" / "dev_summary.csv"
    rc = run_cli("compare", "--base", str(summary), "--target", str(summary))
    assert rc == 0
    out = capsys.readouterr().out
    assert "+0.000" in out


def test_compare_scheme_mismatch_exits_nonzero(fixtures_dir, capsys):
    spider_csv = fixtures_dir / "golden" / "summary_spider4.csv"
    bird_csv = fixtures_dir / "golden" / "summary_bird3.csv"
    rc = run_cli("compare", "--base", str(spider_csv), "--target", str(bird_csv))
    assert rc == 1
    assert "scheme" in capsys.readouterr().err


@pytest.mark.parametrize("rows, named", [
    (None, "No such file"),
    ("a,b\n1,2\n", "missing columns"),
    ("r,f,spider4,simple,1,1,1,1,1,\n", "unknown bucket"),
    ("r,f,spider4,overall,1,1,x,1,1,\n", "counts must be integers"),
    ("r,f,spider4,overall,1,1,1,1,1,\nr,f,spider4,overall,5,5,0,5,0,\n", "more than once"),
    ("r,f,spider4,overall,1,1,3,1,1,\n", "correct <= scored"),
    ("r,f,spider4,easy,1,1,1,2,0,\n", "scored <= n"),
    ("r,f,spider4,overall,1,1,1,1,1,\n", "missing buckets"),
    ("r,f,spider4,easy,1,1,1,1,1,\nq,f,bird3,overall,1,1,1,1,1,\n", "run_id 'q' differs"),
    ("r,f,spider4,easy,1,1,1,1,1,\nr,f,spider4,medium,0,0,0,0,0,\nr,f,spider4,hard,0,0,0,0,0,\n"
     "r,f,spider4,extra,0,0,0,0,0,\nr,f,spider4,overall,10,10,0,10,0,\n", "not the sum"),
], ids=["missing-file", "columns", "bucket", "count", "repeated-bucket", "correct-over-scored",
        "scored-over-n", "only-overall", "other-run", "overall-not-sum"])
def test_compare_on_what_is_not_a_summary_is_one_line(tmp_path, fixtures_dir, capsys, rows,
                                                      named):
    header = ("run_id,config_fingerprint,scheme,bucket,n,em_scored,em_correct,"
              "ex_scored,ex_correct,ves_mean\n")
    good = fixtures_dir / "golden" / "summary_spider4.csv"
    bad = tmp_path / "bad.csv"
    if rows is not None:
        bad.write_text(rows if rows.startswith("a,b") else header + rows)
    for base, target in ((bad, good), (good, bad)):
        assert run_cli("compare", "--base", str(base), "--target", str(target)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot compare: {bad}: ") and named in err, err
        assert len(err.splitlines()) == 1, err


@pytest.mark.parametrize("examples", ['{"question": "q", "query": "SELECT 1"}', "[1, 2]",
                                      '[{"query": "SELECT 1"}]', "not json"],
                         ids=["object", "numbers", "no-question", "not-json"])
def test_stub_examples_that_are_not_records_are_a_config_error(tmp_path, capsys, examples):
    path = tmp_path / "examples.json"
    path.write_text(examples)
    assert run_cli("stub", "--examples", str(path), "--port", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config: --examples {path}: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("argv", [["predict", "--config", "x", "--shots", "abc"], ["predict"],
                                  ["compare", "--base", "a.csv"], []],
                         ids=["bad-int", "no-config", "no-target", "no-command"])
def test_argument_errors_exit_one(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("sqlbench")


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
    out = tmp_path / "profile.yaml"
    assert run_cli("emit-train-profile", "--method", "foo", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("config: invalid profile:")
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
            if partial.is_file() and len(partial.read_text().splitlines()) >= 2:
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert partial.is_file(), (
            "no partial file produced before the kill; child stderr:\n"
            + stderr_path.read_text(errors="replace")
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
    lines = out.read_text().splitlines()
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
    from sqlbench.inference import Prediction, append_prediction, write_predictions

    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    out.parent.mkdir(parents=True)
    partial = out.with_name(out.name + ".partial")
    write_predictions(out, {
        index: Prediction(index, "", "", 0.0, 1, error="HTTP 500") for index in range(20)
    })
    for index in range(20):
        append_prediction(partial, Prediction(index, "", "SELECT 'retried'", 0.0, 1))
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


def test_errored_records_in_the_append_log_are_retried(scratch_config, tmp_path, bundle):
    """Resuming from an append log re-requests its errored records only."""
    from sqlbench.inference import Prediction, append_prediction

    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    out.parent.mkdir(parents=True)
    partial = out.with_name(out.name + ".partial")
    for index in range(15):
        failed = index % 3 == 0  # 0, 3, 6, 9, 12
        append_prediction(partial, Prediction(
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
    prediction error, and a rerun writes the same bytes."""
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
    config.write_text(config.read_text()
                      .replace(str(spider / "tables.json"), str(tmp_path / "tables.json"))
                      .replace(str(spider / "dev.json"), str(tmp_path / "dev.json")))
    argv = ["--config", str(config), "--run-id", "t", "--split", "dev"]
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"

    assert run_cli("predict", *argv) == 0
    assert gold_stub.request_count == 2
    predictions = read_predictions(out)
    assert [p.error is None for p in predictions.values()] == [True, True, False]
    assert re.fullmatch(r"prompt exceeds token budget by \d+ tokens at k=0", predictions[2].error)
    assert predictions[2].attempt_count == 0
    first = out.read_bytes()
    assert run_cli("predict", *argv) == 0
    assert out.read_bytes() == first and gold_stub.request_count == 2

    capsys.readouterr()
    assert run_cli("evaluate", *argv, "--predictions", str(out)) == 0
    records = (tmp_path / "runs" / "t" / "eval" / "dev_records.jsonl").read_text().splitlines()
    assert [json.loads(line)["failure"] for line in records][2] == "prediction-error"


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

    text = scratch_config.read_text().replace("strategy: random", "strategy: question-similarity")
    scratch_config.write_text(text)
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
    text = scratch_config.read_text().replace("    train:", "    #train:")
    scratch_config.write_text(text)
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
    scratch_config.write_text(
        scratch_config.read_text().replace("strategy: random", "strategy: dual-similarity"))
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
        ("selection.k", "k: 0", "k: -1"),
        ("selection.strategy", "strategy: random", "strategy: telepathy"),
        ("prompt.schema_style", "schema_style: sentence", "schema_style: weird"),
    ]
    good = write_config_with_url(scratch_config, gold_stub.base_url).read_text()
    for key, replaced, replacement in bad_values:
        assert replaced in good, (key, replaced)
        config = tmp_path / "bad.yaml"
        config.write_text(good.replace(replaced, replacement))
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
])
def test_misspelt_key_or_wrong_type_is_a_config_error(scratch_config, tmp_path, gold_stub,
                                                      capsys, replaced, replacement, named):
    """An unknown key at any level, or a value of the wrong type, is refused at
    load with one line naming it, before any data is read or request sent."""
    good = write_config_with_url(scratch_config, gold_stub.base_url).read_text()
    assert good.count(replaced) == 1
    config = tmp_path / "bad.yaml"
    config.write_text(good.replace(replaced, replacement))
    assert run_cli("predict", "--config", str(config), "--run-id", "t", "--split", "dev") == 1
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("config:")]
    assert len(errors) == 1 and named in errors[0], errors
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

    monkeypatch.setattr(sqlbench.cli, "load_bundle", no_data)
    config = write_config_with_url(scratch_config, gold_stub.base_url)
    assert run_cli(*argv, "--config", str(config), "--run-id", "t") == 1
    err = capsys.readouterr().err
    assert f"{flag} must be non-negative" in err and "Traceback" not in err
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
    scratch_config.write_text(scratch_config.read_text().replace("k: 0", "k: 1"))
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
    import sqlbench.cli

    config = write_config_with_url(scratch_config, gold_stub.base_url)
    argv = ["predict", "--config", str(config), "--run-id", "t", "--split", "dev",
            "--shots", "0"]

    def dies_midway(path, predictions):
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(predictions[0].to_json() + "\n")
        raise OSError("disk full")

    monkeypatch.setattr(sqlbench.cli, "write_predictions", dies_midway)
    assert run_cli(*argv) == 2
    monkeypatch.undo()
    assert run_cli(*argv) == 0
    out = tmp_path / "runs" / "t" / "predictions" / "dev_shots0.jsonl"
    assert sorted(read_predictions(out)) == list(range(20))
    assert gold_stub.request_count == 20  # the rerun reused the append log
    assert not out.with_name(out.name + ".partial").exists()

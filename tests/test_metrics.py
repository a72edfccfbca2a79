from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from sqlbench.execution import (
    ExecutionFailure,
    ReusedConnection,
    execute_sql,
    has_top_level_order_by,
    results_match,
)
from sqlbench.inference import Prediction
from sqlbench.metrics import (
    EvalRecord,
    GoldExecutionError,
    ScoreOptions,
    score_em,
    score_ex,
    score_run,
    write_eval_records,
)

from helpers import read_eval_records


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def prediction(index: int, sql: str) -> Prediction:
    return Prediction(index, sql, sql, 1.0, 1)


def run_sql(sql: str, db_file, timeout_s: float = 30.0):
    """One statement on a connection of its own, as scoring opens them."""
    with ReusedConnection() as connections:
        return execute_sql(sql, connections.get(db_file), timeout_s)


class TestExecute:
    def test_select_one(self, db_file):
        outcome = run_sql("SELECT 1", db_file)
        assert outcome.rows == [(1,)]
        assert outcome.elapsed > 0
        assert outcome.ordered is False

    def test_error_on_unknown_table(self, db_file):
        with pytest.raises(ExecutionFailure) as err:
            run_sql("SELECT nonexistent FROM nowhere", db_file)
        assert err.value.kind == "exec-error"

    def test_missing_db(self, tmp_path):
        with pytest.raises(ExecutionFailure) as err:
            run_sql("SELECT 1", tmp_path / "ghost.sqlite")
        assert err.value.kind == "db-unavailable"

    def test_runaway_query_times_out(self, db_file):
        with pytest.raises(ExecutionFailure) as err:
            run_sql(
                "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
                " SELECT count(*) FROM c",
                db_file,
                timeout_s=1.0,
            )
        assert err.value.kind == "timeout"

    def test_write_rejected_readonly(self, db_file):
        before = sha256(db_file)
        with pytest.raises(ExecutionFailure) as err:
            run_sql("INSERT INTO singer VALUES (99,'X','Y','Z','2020',30,1)", db_file)
        assert err.value.kind == "exec-error"
        assert sha256(db_file) == before

    def test_ordered_flag_detection(self):
        assert has_top_level_order_by("SELECT a FROM t ORDER BY a")
        assert not has_top_level_order_by("SELECT a FROM t")
        assert not has_top_level_order_by(
            "SELECT a FROM t WHERE x IN (SELECT b FROM u ORDER BY b LIMIT 1)"
        )
        assert has_top_level_order_by(
            "SELECT a FROM t UNION SELECT b FROM u ORDER BY 1"
        )
        assert not has_top_level_order_by("not sql at all")


class TestResultsMatch:
    def test_multiset_not_set(self):
        assert not results_match([("a",), ("a",)], [("a",)], ordered=False)
        assert results_match([("a",), ("b",)], [("b",), ("a",)], ordered=False)

    def test_ordered_respects_sequence(self):
        assert not results_match([(1,), (2,)], [(2,), (1,)], ordered=True)
        assert results_match([(1,), (2,)], [(1,), (2,)], ordered=True)

    def test_numeric_unification_and_tolerance(self):
        assert results_match([(1,)], [(1.0,)], ordered=False)
        assert results_match([(0.3,)], [(0.3 + 1e-12,)], ordered=False)
        assert not results_match([(0.3,)], [(0.30001,)], ordered=False)
        assert not results_match([(1,)], [("1",)], ordered=False)

    def test_null_semantics(self):
        assert results_match([(None,)], [(None,)], ordered=False)
        assert not results_match([(None,)], [(0,)], ordered=False)

    def test_arity_mismatch(self):
        assert not results_match([(1, 2)], [(1,)], ordered=False)


class TestExConformance:
    """The committed hand-executed verdict suite (>=30 pairs)."""

    def test_all_pairs_agree(self, db_file, fixtures_dir, tmp_path):
        pairs = json.loads((fixtures_dir / "ex_pairs.json").read_text())["pairs"]
        assert len(pairs) >= 30
        before = sha256(db_file)
        failures = []
        for pair in pairs:
            db = tmp_path / "ghost.sqlite" if pair.get("db") == "missing" else db_file
            try:
                result = score_ex(pair["pred"], pair["gold"], db, timeout_s=1.5)
            except GoldExecutionError:
                failures.append(f"pair {pair['id']}: unexpected gold failure")
                continue
            expect = pair["expect"]
            if expect == "true":
                ok = result.ex is True and result.failure is None
            elif expect == "false":
                ok = result.ex is False and result.failure is None
            elif expect == "db-unavailable":
                ok = result.ex is None and result.failure == "db-unavailable"
            else:  # exec-error / timeout
                ok = result.ex is False and result.failure == expect
            if not ok:
                failures.append(
                    f"pair {pair['id']}: expect {expect},"
                    f" got ex={result.ex} failure={result.failure} ({pair['note']})"
                )
        assert not failures, "\n".join(failures)
        assert sha256(db_file) == before, "database bytes changed during scoring"


class TestScoreEm:
    def test_verbatim(self, bundle):
        schema = bundle.schemas["concert_singer"]
        assert score_em("SELECT count(*) FROM singer", "SELECT count(*) FROM singer", schema)

    def test_garbage_prediction(self, bundle):
        schema = bundle.schemas["concert_singer"]
        assert not score_em("garbage text", "SELECT count(*) FROM singer", schema)

    def test_literal_difference(self, bundle):
        schema = bundle.schemas["concert_singer"]
        assert score_em(
            "SELECT name FROM singer WHERE age > 30",
            "SELECT name FROM singer WHERE age > 20",
            schema,
        )


class TestScoreEx:
    def test_self_comparison_ves_band(self, db_file):
        result = score_ex(
            "SELECT count(*) FROM singer", "SELECT count(*) FROM singer",
            db_file, ves=True,
        )
        assert result.ex is True
        assert 0.5 <= result.ves_ratio <= 2.0

    def test_gold_failure_flags_dataset_error(self, db_file):
        with pytest.raises(GoldExecutionError):
            score_ex("SELECT 1", "SELECT broken FROM nowhere", db_file)


class TestScoreRun:
    def test_gold_echo_all_true(self, bundle):
        examples = bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        assert len(records) == len(examples)
        assert all(r.em is True for r in records)
        assert all(r.ex is True for r in records)
        assert all(r.difficulty is not None for r in records)

    def test_select_one_predictions(self, bundle):
        examples = bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, "SELECT 1") for ex in examples}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        assert all(r.em is False for r in records)
        # brute force: EX true exactly where the gold returns one row (1)
        import sqlite3

        conn = sqlite3.connect(bundle.db_files["concert_singer"])
        for record, example in zip(records, examples):
            gold_rows = conn.execute(example.gold_sql).fetchall()
            assert record.ex is (gold_rows == [(1,)]), example.gold_sql
        conn.close()

    def test_em_only_run_without_dbs(self, bundle):
        examples = bundle.splits["dev"][:5]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        options = ScoreOptions(em=True, ex=False)
        records = score_run(examples, predictions, bundle, options)
        assert all(r.em is True for r in records)
        assert all(r.ex is None for r in records)

    def test_missing_prediction_is_an_error_record(self, bundle):
        examples = bundle.splits["dev"][:3]
        predictions = {examples[0].index: prediction(examples[0].index, examples[0].gold_sql)}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        assert len(records) == 3
        assert records[0].failure is None
        for record in records[1:]:
            assert record.failure == "prediction-error"
            assert record.em is False and record.ex is False

    def test_db_unavailable_reported_not_fatal(self, bundle):
        examples = [ex for ex in bundle.splits["train"] if ex.db_id == "college_2"][:3]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        for record in records:
            assert record.em is True
            assert record.ex is None
            assert record.failure == "db-unavailable"

    def test_em_implies_ex_for_literal_identical(self, bundle):
        """Predictions parse-identical to gold including literals must score
        EX = true wherever EM = true."""
        examples = bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        for record in records:
            if record.em:
                assert record.ex is True

    def test_totality(self, bundle):
        examples = bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, "SELECT 1") for ex in examples}
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        assert [r.example_index for r in records] == [ex.index for ex in examples]


def test_record_lines_match_golden(fixtures_dir):
    """The bytes predict and evaluate write per record, errored or not."""
    from sqlbench.datasets import DifficultyLabel

    records = [
        Prediction(3, "```sql\nSELECT name FROM singer;\n```", "SELECT name FROM singer", 12.5, 1),
        Prediction(4, "", "", 1503.25, 3, "status 503: Café closed"),
        EvalRecord(0, True, True, 1.25, DifficultyLabel("spider4", "easy")),
        EvalRecord(1, False, False, None, DifficultyLabel("bird3", "challenge"), "exec-error"),
        EvalRecord(2, None, None, None, None, "prediction-error"),
    ]
    lines = "".join(record.to_json() + "\n" for record in records)
    assert lines == (fixtures_dir / "golden" / "records.jsonl").read_text(encoding="utf-8")


def test_eval_record_roundtrip(tmp_path, bundle):
    from sqlbench.datasets import DifficultyLabel

    records = [
        EvalRecord(0, True, True, 1.25, DifficultyLabel("spider4", "easy"), None),
        EvalRecord(1, False, None, None, DifficultyLabel("spider4", "extra"), "db-unavailable"),
        EvalRecord(2, None, False, None, None, "gold-error"),
    ]
    path = tmp_path / "records.jsonl"
    write_eval_records(records, path)
    assert read_eval_records(path) == records


class TestBirdScheme:
    def test_ingested_difficulty_flows_to_summary(self, bird_bundle):
        from sqlbench.reporting import summarize

        examples = bird_bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        records = score_run(examples, predictions, bird_bundle, ScoreOptions(em=True, ex=False))
        assert all(r.difficulty is not None and r.difficulty.scheme == "bird3" for r in records)
        summary = summarize(records, "bird-run", "fp", scheme="bird3")
        assert summary.buckets["simple"].n == 2
        assert summary.buckets["moderate"].n == 1
        assert summary.buckets["challenge"].n == 1


def test_parse_error_failure_classification(bundle):
    examples = bundle.splits["dev"][:1]
    # EM-only run: a prediction outside the clause grammar is classified
    predictions = {0: prediction(0, "SELECT x FROM t WHERE EXISTS (SELECT 1)")}
    records = score_run(examples, predictions, bundle, ScoreOptions(em=True, ex=False))
    assert records[0].em is False
    assert records[0].failure == "parse-error"
    # with EX enabled, the execution verdict's failure takes precedence
    predictions = {0: prediction(0, "totally broken")}
    records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
    assert records[0].failure == "exec-error"


def test_score_run_with_ves(bundle):
    examples = bundle.splits["dev"][:3]
    predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
    records = score_run(
        examples, predictions, bundle, ScoreOptions(ves=True, timeout_s=10)
    )
    for record in records:
        assert record.ex is True
        assert record.ves_ratio is not None
        assert 0.5 <= record.ves_ratio <= 2.0


# --- score_run's per-gold cache against the per-example public scorers ---

# prediction kinds, cycled over the examples by position
_PREDICTION_KINDS = (
    "echo",  # the gold itself: EM and EX true
    "SELECT count(*) FROM stadium",  # parses, misses EM
    "SELECT name FROM singer WHERE EXISTS (SELECT 1)",  # executes, outside the grammar
    "SELECT broken FROM nowhere",  # neither parses nor executes
    None,  # no prediction at all
    "error",  # an errored request
    "SELECT 1",
    "PRAGMA case_sensitive_like = 1",  # leaves state on its connection
    "PRAGMA query_only = OFF",
    "DELETE FROM singer",  # refused: the database is read-only
)


def _scoring_examples(bundle):
    """The fixture dev split, then dev examples again under new indexes
    (shared golds), train examples (another database, whose file is missing)
    and golds that fall outside the grammar or do not execute."""
    from dataclasses import replace

    dev = bundle.splits["dev"]
    examples = list(dev)
    examples += [replace(ex, index=100 + ex.index) for ex in dev[::3]]
    examples += [replace(ex, index=200 + ex.index) for ex in bundle.splits["train"]]
    examples += [
        replace(dev[0], index=300, gold_sql="SELECT name FROM singer WHERE EXISTS (SELECT 1)"),
        replace(dev[0], index=301, gold_sql="SELECT broken FROM nowhere"),
        replace(dev[0], index=302, gold_sql="SELECT 'a' LIKE 'A'"),
        replace(dev[0], index=303, gold_sql="SELECT 'a' LIKE 'A'"),
    ]
    return examples


def _scoring_predictions(examples):
    predictions = {}
    for position, example in enumerate(examples):
        kind = _PREDICTION_KINDS[position % len(_PREDICTION_KINDS)]
        if kind is None:
            continue
        if kind == "error":
            predictions[example.index] = Prediction(example.index, "", "", 1.0, 1, error="HTTP 500")
        else:
            predictions[example.index] = prediction(
                example.index, example.gold_sql if kind == "echo" else kind)
    return predictions


def _reference_record(example, pred, bundle, options) -> EvalRecord:
    """One example scored on its own, through the public scorers."""
    from sqlbench.sqlkit import SqlParseError, classify_difficulty, parse_sql

    schema = bundle.schemas[example.db_id]
    try:
        difficulty = classify_difficulty(parse_sql(example.gold_sql, schema))
    except SqlParseError:
        difficulty = None
    if pred is None or pred.error:
        return EvalRecord(example.index, False if options.em else None,
                          False if options.ex else None, None, difficulty, "prediction-error")
    em = None
    pred_unparseable = False
    if options.em:
        try:
            em = score_em(pred.extracted_sql, example.gold_sql, schema)
        except SqlParseError:
            em = None
        if em is False:
            try:
                parse_sql(pred.extracted_sql, schema)
            except SqlParseError:
                pred_unparseable = True
    ex = failure = None
    if options.ex:
        try:
            result = score_ex(pred.extracted_sql, example.gold_sql,
                              bundle.db_files.get(example.db_id), options.timeout_s)
            ex, failure = result.ex, result.failure
        except GoldExecutionError:
            failure = "gold-error"
    if failure is None and pred_unparseable:
        failure = "parse-error"
    return EvalRecord(example.index, em, ex, None, difficulty, failure)


@pytest.mark.parametrize("rounds", [1, 4])
@pytest.mark.parametrize("em,ex", [(True, True), (True, False), (False, True)])
def test_score_run_matches_per_example_reference(bundle, db_file, rounds, em, ex):
    """With rounds > 1 the examples repeat under new indexes, so each gold
    group holds more members and predictions that leave state on the reused
    connection run between members that share one gold."""
    from dataclasses import replace

    examples = [replace(e, index=round_ * 1000 + e.index)
                for round_ in range(rounds) for e in _scoring_examples(bundle)]
    predictions = _scoring_predictions(examples)
    options = ScoreOptions(em=em, ex=ex, timeout_s=10)
    before = sha256(db_file)
    records = score_run(examples, predictions, bundle, options)
    assert sha256(db_file) == before, "database bytes changed during scoring"
    reference = [_reference_record(e, predictions.get(e.index), bundle, options)
                 for e in examples]
    assert records == reference
    # the run covers every verdict it is meant to
    failures = {r.failure for r in records}
    assert "prediction-error" in failures
    if ex:
        assert {"exec-error", "db-unavailable", "gold-error", None} <= failures
        assert {True, False} <= {r.ex for r in records}
    if em:
        assert "parse-error" in failures
        assert {True, False, None} <= {r.em for r in records}


def test_score_run_analyses_each_gold_once(bundle, monkeypatch):
    import sqlbench.metrics as metrics

    dev = bundle.splits["dev"]
    examples = _scoring_examples(bundle)[: len(dev) + len(dev[::3])]  # one database
    # every prediction is a distinct string, no gold's twin
    predictions = {}
    for position, example in enumerate(examples):
        sql = example.gold_sql if position % 2 else "SELECT count(*) FROM stadium"
        predictions[example.index] = prediction(example.index, sql + " " * (position + 1))
    executed, parsed = [], []

    def counting(calls, original):
        def counted(sql, *args, **kwargs):
            calls.append(sql)
            return original(sql, *args, **kwargs)
        return counted

    monkeypatch.setattr(metrics, "execute_sql", counting(executed, metrics.execute_sql))
    monkeypatch.setattr(metrics, "parse_sql", counting(parsed, metrics.parse_sql))
    records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
    assert all(r.ex is not None and r.em is not None for r in records)
    golds = {ex.gold_sql for ex in examples}
    assert len(golds) == len(dev) < len(examples)
    for calls in (executed, parsed):
        assert sorted(sql for sql in calls if sql in golds) == sorted(golds)
    pred_sqls = [p.extracted_sql for p in predictions.values()]
    assert sorted(sql for sql in executed if sql not in golds) == sorted(pred_sqls)
    assert sorted(sql for sql in parsed if sql not in golds) == sorted(pred_sqls)


def test_score_run_opens_each_database_once(bundle, db_file, tmp_path, monkeypatch):
    """Dev examples alternate between the fixture database and a copy of it
    under another db_id: each database is opened once, and every record is
    the record of its example, in example order."""
    import shutil
    from dataclasses import replace

    import sqlbench.execution as execution

    copy = shutil.copy(db_file, tmp_path / "copy.sqlite")
    twin = replace(bundle, schemas={**bundle.schemas, "twin": bundle.schemas["concert_singer"]},
                   db_files={**bundle.db_files, "twin": copy})
    examples = [replace(ex, db_id="twin") if position % 2 else ex
                for position, ex in enumerate(bundle.splits["dev"])]
    predictions = {ex.index: prediction(ex.index, "SELECT count(*) FROM singer")
                   for ex in examples}
    opened = []
    connect_readonly = execution.connect_readonly
    monkeypatch.setattr(execution, "connect_readonly",
                        lambda path: opened.append(path) or connect_readonly(path))
    records = score_run(examples, predictions, twin, ScoreOptions(timeout_s=10))
    assert sorted(map(str, opened)) == sorted(map(str, [db_file, copy]))
    monkeypatch.undo()
    expected = score_run(bundle.splits["dev"], predictions, bundle, ScoreOptions(timeout_s=10))
    assert records == expected


def test_em_off_on_bird_parses_no_gold(bird_bundle, monkeypatch):
    import sqlbench.metrics as metrics

    def refuse(*args, **kwargs):
        raise AssertionError("parsed or executed with EM and EX off")

    monkeypatch.setattr(metrics, "parse_sql", refuse)
    monkeypatch.setattr(metrics, "execute_sql", refuse)
    examples = bird_bundle.splits["dev"]
    predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
    records = score_run(examples, predictions, bird_bundle, ScoreOptions(em=False, ex=False))
    assert [r.difficulty for r in records] == [ex.difficulty for ex in examples]


class TestReusedConnection:
    RUNAWAY = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c)"
               " SELECT count(*) FROM c")
    # many more than the progress handler's interval of virtual-machine steps
    LONG = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c LIMIT 200000)"
            " SELECT count(*) FROM c")

    def test_timeout_leaves_the_connection_working(self, db_file):
        with ReusedConnection() as connections:
            conn = connections.get(db_file)
            with pytest.raises(ExecutionFailure) as err:
                execute_sql(self.RUNAWAY, conn, 0.5)
            assert err.value.kind == "timeout"
            assert connections.get(db_file) is conn
            # no expired deadline is left behind to interrupt the next query
            assert conn.execute(self.LONG).fetchall() == [(200000,)]
            outcome = execute_sql("SELECT count(*) FROM singer", conn, 5)
            assert outcome.rows == [(6,)]

    def test_stateful_statement_retires_its_connection(self, db_file):
        import sqlite3

        with ReusedConnection() as connections:
            conn = connections.get(db_file)
            assert execute_sql("SELECT 'a' LIKE 'A'", conn, 5).rows == [(1,)]
            assert connections.get(db_file) is conn
            execute_sql("PRAGMA case_sensitive_like = 1", conn, 5)
            fresh = connections.get(db_file)
            assert fresh is not conn
            with pytest.raises(sqlite3.ProgrammingError):
                conn.execute("SELECT 1")
            assert execute_sql("SELECT 'a' LIKE 'A'", fresh, 5).rows == [(1,)]

    def test_a_prediction_does_not_change_a_later_gold(self, bundle):
        from dataclasses import replace

        first = bundle.splits["dev"][0]
        examples = [first, replace(first, index=1, gold_sql="SELECT 'a' LIKE 'A'")]
        predictions = {0: prediction(0, "PRAGMA case_sensitive_like = 1"),
                       1: prediction(1, "SELECT 1")}
        # both golds run on the one scoring connection
        records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        assert records[1].ex is True


@pytest.mark.parametrize("fail", [False, True])
def test_score_run_closes_every_connection(bundle, monkeypatch, fail):
    import sqlite3

    import sqlbench.execution as execution
    import sqlbench.metrics as metrics

    opened = []

    def recording(db_file):
        conn = connect_readonly(db_file)
        opened.append(conn)
        return conn

    connect_readonly = execution.connect_readonly
    monkeypatch.setattr(execution, "connect_readonly", recording)
    if fail:
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:
                raise RuntimeError("scoring failed")
            return results_match(*args)

        monkeypatch.setattr(metrics, "results_match", failing)
    examples = _scoring_examples(bundle)
    predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
    options = ScoreOptions(timeout_s=10)
    if fail:
        with pytest.raises(RuntimeError):
            score_run(examples, predictions, bundle, options)
    else:
        score_run(examples, predictions, bundle, options)
    assert opened
    for conn in opened:
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")


def test_score_run_starts_no_thread(bundle, monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("score_run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    examples = _scoring_examples(bundle)
    predictions = _scoring_predictions(examples)
    records = score_run(examples, predictions, bundle, ScoreOptions(ves=True, timeout_s=10))
    assert [r.example_index for r in records] == [ex.index for ex in examples]


class TestVes:
    # the same rows as the gold, after a 100k-step recursion run once
    SLOW = ("SELECT count(*) FROM singer WHERE (WITH RECURSIVE c(x) AS"
            " (SELECT 1 UNION ALL SELECT x + 1 FROM c LIMIT 100000) SELECT count(*) FROM c) > 0")

    def test_each_distinct_gold_is_timed_once(self, bundle, monkeypatch):
        import sqlbench.metrics as metrics

        dev = bundle.splits["dev"]
        examples = _scoring_examples(bundle)[: len(dev) + len(dev[::3])]  # one database
        # gold echoes under distinct strings, so each timing names its query
        predictions = {ex.index: prediction(ex.index, ex.gold_sql + " " * (position + 1))
                       for position, ex in enumerate(examples)}
        timed = []
        median_elapsed = metrics.median_elapsed

        def counted(sql, *args, **kwargs):
            timed.append(sql)
            return median_elapsed(sql, *args, **kwargs)

        monkeypatch.setattr(metrics, "median_elapsed", counted)
        records = score_run(examples, predictions, bundle, ScoreOptions(ves=True, timeout_s=10))
        assert all(r.ex is True and r.ves_ratio is not None for r in records)
        golds = {ex.gold_sql for ex in examples}
        assert len(golds) < len(examples)
        assert sorted(sql for sql in timed if sql in golds) == sorted(golds)
        assert sorted(sql for sql in timed if sql not in golds) == sorted(
            p.extracted_sql for p in predictions.values())

    def test_timing_opens_no_connection(self, bundle, monkeypatch):
        import sqlbench.execution as execution

        opened = []
        connect_readonly = execution.connect_readonly
        monkeypatch.setattr(execution, "connect_readonly",
                            lambda db_file: opened.append(db_file) or connect_readonly(db_file))
        examples = bundle.splits["dev"]
        predictions = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
        score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
        without_ves = len(opened)
        opened.clear()
        records = score_run(examples, predictions, bundle, ScoreOptions(ves=True, timeout_s=10))
        assert all(r.ves_ratio is not None for r in records)
        assert len(opened) == without_ves == 1

    def test_slower_prediction_scores_below_half(self, bundle):
        from dataclasses import replace

        example = replace(bundle.splits["dev"][0], gold_sql="SELECT count(*) FROM singer")
        predictions = {example.index: prediction(example.index, self.SLOW)}
        options = ScoreOptions(em=False, ves=True, timeout_s=10)
        record, = score_run([example], predictions, bundle, options)
        assert record.ex is True
        assert record.ves_ratio < 0.5

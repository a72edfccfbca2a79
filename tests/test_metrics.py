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
    ScoreOptions,
    read_eval_records,
    score_run,
    write_eval_records,
)

from helpers import score_pair


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
    """The committed hand-executed verdict suite (>=30 pairs), each pair
    scored alone by ``score_run``."""

    def test_all_pairs_agree(self, bundle, db_file, fixtures_dir, tmp_path):
        pairs = json.loads((fixtures_dir / "ex_pairs.json").read_text(encoding="utf-8"))["pairs"]
        assert len(pairs) >= 30
        before = sha256(db_file)
        failures = []
        for pair in pairs:
            db = tmp_path / "ghost.sqlite" if pair.get("db") == "missing" else None
            result = score_pair(bundle, pair["pred"], pair["gold"],
                                ScoreOptions(em=False, timeout_s=1.5), db)
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


EM_ONLY = ScoreOptions(ex=False)


class TestScoreEm:
    def test_verbatim(self, bundle):
        record = score_pair(bundle, "SELECT count(*) FROM singer", "SELECT count(*) FROM singer",
                            EM_ONLY)
        assert record.em is True and record.failure is None

    def test_garbage_prediction(self, bundle):
        record = score_pair(bundle, "garbage text", "SELECT count(*) FROM singer", EM_ONLY)
        assert record.em is False and record.failure == "parse-error"

    def test_literal_difference(self, bundle):
        record = score_pair(bundle, "SELECT name FROM singer WHERE age > 30",
                            "SELECT name FROM singer WHERE age > 20", EM_ONLY)
        assert record.em is True


class TestScoreEx:
    def test_self_comparison_ves_band(self, bundle):
        result = score_pair(bundle, "SELECT count(*) FROM singer", "SELECT count(*) FROM singer",
                            ScoreOptions(ves=True))
        assert result.ex is True
        assert 0.5 <= result.ves_ratio <= 2.0

    def test_gold_failure_flags_dataset_error(self, bundle):
        """A gold that does not execute is a dataset error: no verdict, and
        the record says so."""
        result = score_pair(bundle, "SELECT 1", "SELECT broken FROM nowhere")
        assert result.ex is None and result.failure == "gold-error"


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


_RECORD = {"example_index": 1, "em": True, "ex": False, "ves_ratio": None,
           "difficulty": {"scheme": "spider4", "label": "hard"}, "failure": None}


@pytest.mark.parametrize("line, named", [
    (b"not json", "Expecting value"),
    (b"\xff", "can't decode"),
    (b"[1, 2]", "must be a mapping"),
    (json.dumps({**_RECORD, "hardness": "hard"}).encode(), "'hardness'"),
    (json.dumps({k: v for k, v in _RECORD.items() if k != "em"}).encode(), "'em'"),
    (json.dumps({**_RECORD, "example_index": "1"}).encode(), "wrong type of example_index"),
    (json.dumps({**_RECORD, "example_index": True}).encode(), "wrong type of example_index"),
    (json.dumps({**_RECORD, "em": 1, "ex": "no"}).encode(), "wrong type of em, ex"),
    (json.dumps({**_RECORD, "ves_ratio": "1.5"}).encode(), "wrong type of ves_ratio"),
    (json.dumps({**_RECORD, "failure": 3}).encode(), "wrong type of failure"),
    (json.dumps({**_RECORD, "failure": "\ud800"}).encode(), "wrong type of failure"),
    (json.dumps({**_RECORD, "difficulty": "hard"}).encode(), "must be a mapping"),
    (json.dumps({**_RECORD, "difficulty": {"scheme": "spider4"}}).encode(), "'label'"),
    (json.dumps({**_RECORD, "difficulty": {"scheme": "spider4", "label": "simple"}}).encode(),
     "label 'simple' not in scheme spider4"),
    (json.dumps({**_RECORD, "difficulty": {"scheme": "spider5", "label": "hard"}}).encode(),
     "unknown difficulty scheme"),
    (json.dumps({**_RECORD, "example_index": 0}).encode(), "example 0 recorded twice"),
    (b"", "Expecting value"),
], ids=["not-json", "not-utf8", "not-an-object", "unknown-key", "missing-key", "index-text",
        "index-bool", "verdicts", "ves-text", "failure-number", "failure-surrogate",
        "difficulty-text", "difficulty-no-label", "difficulty-label", "difficulty-scheme",
        "repeated-index", "blank"])
def test_read_eval_records_names_the_line_that_is_not_a_record(tmp_path, line, named):
    path = tmp_path / "records.jsonl"
    first = EvalRecord(0, None, True, 1.5, None, None).to_json().encode()
    path.write_bytes(first + b"\n" + line + b"\n")
    with pytest.raises(ValueError) as exc_info:
        read_eval_records(path)
    assert str(exc_info.value).startswith(f"{path}:2: ") and named in str(exc_info.value)
    path.write_bytes(first + b"\n")
    assert read_eval_records(path) == [EvalRecord(0, None, True, 1.5, None, None)]


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
    # each example scored alone, as the one example of its run
    reference = [score_run([e], predictions, bundle, options)[0] for e in examples]
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


def _counting(calls: list, original):
    """``original``, appending its first argument (a SQL text) to ``calls``
    on each call."""
    def counted(sql, *args, **kwargs):
        calls.append(sql)
        return original(sql, *args, **kwargs)
    return counted


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
    monkeypatch.setattr(metrics, "execute_sql", _counting(executed, metrics.execute_sql))
    monkeypatch.setattr(metrics, "parse_sql", _counting(parsed, metrics.parse_sql))
    records = score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
    assert all(r.ex is not None and r.em is not None for r in records)
    golds = {ex.gold_sql for ex in examples}
    assert len(golds) == len(dev) < len(examples)
    for calls in (executed, parsed):
        assert sorted(sql for sql in calls if sql in golds) == sorted(golds)
    pred_sqls = [p.extracted_sql for p in predictions.values()]
    assert sorted(sql for sql in executed if sql not in golds) == sorted(pred_sqls)
    assert sorted(sql for sql in parsed if sql not in golds) == sorted(pred_sqls)


def _count_judgements(monkeypatch) -> tuple[list, list]:
    """Lists that collect (db_id, text) for each ``parse_sql`` call and the
    text of each ``execute_sql`` call that scoring makes."""
    import sqlbench.metrics as metrics

    parsed, executed = [], []
    parse_sql = metrics.parse_sql
    monkeypatch.setattr(metrics, "parse_sql",
                        lambda sql, schema: parsed.append((schema.db_id, sql))
                        or parse_sql(sql, schema))
    monkeypatch.setattr(metrics, "execute_sql", _counting(executed, metrics.execute_sql))
    return parsed, executed


@pytest.mark.parametrize("rounds", [1, 3])
def test_score_run_judges_each_distinct_text_on_a_database_once(bundle, monkeypatch, rounds):
    """Golds and predictions, echoes and shared texts among them: each
    (db_id, text) is parsed at most once and executed at most once."""
    from collections import Counter
    from dataclasses import replace

    examples = [replace(e, index=round_ * 1000 + e.index)
                for round_ in range(rounds) for e in _scoring_examples(bundle)]
    predictions = _scoring_predictions(examples)
    parsed, executed = _count_judgements(monkeypatch)
    score_run(examples, predictions, bundle, ScoreOptions(timeout_s=10))
    # only the fixture database has a file, so every execution is on it
    assert parsed and executed
    assert max(Counter(parsed).values()) == 1
    assert max(Counter(executed).values()) == 1


def test_a_gold_echo_adds_no_parse_and_no_execution(bundle, monkeypatch):
    examples = _scoring_examples(bundle)
    echoes = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
    parsed, executed = _count_judgements(monkeypatch)
    records = score_run(examples, echoes, bundle, ScoreOptions(timeout_s=10))
    assert sorted(parsed) == sorted({(ex.db_id, ex.gold_sql) for ex in examples})
    on_file = {ex.gold_sql for ex in examples if bundle.db_files.get(ex.db_id)}
    assert sorted(executed) == sorted(on_file)
    assert {r.ex for r in records} == {True, None}


def test_a_gold_echo_takes_its_ex_verdict_without_a_row_comparison(bundle, monkeypatch):
    """An echo's rows are its gold's own: no ``results_match`` call, and the
    gold's ORDER BY is not looked for. The same rows from another text are
    still compared."""
    import sqlbench.metrics as metrics

    compared, ordered = [], []
    monkeypatch.setattr(metrics, "results_match", _counting(compared, results_match))
    monkeypatch.setattr(metrics, "has_top_level_order_by",
                        _counting(ordered, has_top_level_order_by))
    examples = _scoring_examples(bundle)
    echoes = {ex.index: prediction(ex.index, ex.gold_sql) for ex in examples}
    records = score_run(examples, echoes, bundle, ScoreOptions(timeout_s=10))
    assert compared == [] and ordered == []
    assert {r.ex for r in records} == {True, None}
    first = examples[0]
    twin = {first.index: prediction(first.index, first.gold_sql + " ")}
    assert score_run([first], twin, bundle, ScoreOptions(timeout_s=10))[0].ex is True
    assert len(compared) == 1 and ordered == [first.gold_sql]


@pytest.mark.parametrize("ordered", [False, True])
def test_a_row_list_matches_itself(ordered):
    """What the echo rule rests on, for rows with duplicates, NULLs, floats,
    blobs, text and ints beside floats in one column."""
    rows = [(1, 0.1 + 0.2, None, b"\x00\xff", "a"), (1, 0.1 + 0.2, None, b"\x00\xff", "a"),
            (2.0, 1e-300, None, b"", ""), (3, -0.0, 7, b"x", "b"), (2.5, 3, 1.5, None, None)]
    assert results_match(rows, rows, ordered)
    assert results_match(rows, [tuple(list(row)) for row in rows], ordered)


@pytest.mark.parametrize("sql, failure", [
    ("SELECT count(*) FROM singer WHERE age > 0", None),  # parses and executes
    ("SELECT count(*) FROM singer WHERE EXISTS (SELECT 1)", "parse-error"),  # executes
    ("SELECT broken FROM nowhere", "exec-error"),  # neither
])
def test_one_text_predicted_for_many_golds_executes_once(bundle, monkeypatch, sql, failure):
    """The text runs once for all of the database's golds; each record is
    the one its example gets when scored alone."""
    examples = bundle.splits["dev"]
    assert len({ex.gold_sql for ex in examples}) > 1
    assert len({ex.db_id for ex in examples}) == 1
    predictions = {ex.index: prediction(ex.index, sql) for ex in examples}
    options = ScoreOptions(timeout_s=10)
    reference = [score_run([ex], predictions, bundle, options)[0] for ex in examples]
    parsed, executed = _count_judgements(monkeypatch)
    records = score_run(examples, predictions, bundle, options)
    assert executed.count(sql) == 1
    assert [text for _, text in parsed].count(sql) == 1
    assert records == reference
    assert {r.failure for r in records} == {failure}
    if failure is None:
        assert {True, False} <= {r.ex for r in records}
    else:
        assert {r.em for r in records} == {False}
        assert {r.ex for r in records} == ({False} if failure == "exec-error" else {True, False})


def test_a_text_that_timed_out_is_not_rerun_for_its_duplicates(bundle, monkeypatch):
    runaway = TestReusedConnection.RUNAWAY
    examples = bundle.splits["dev"][:3]
    predictions = {ex.index: prediction(ex.index, runaway) for ex in examples}
    _, executed = _count_judgements(monkeypatch)
    records = score_run(examples, predictions, bundle, ScoreOptions(em=False, timeout_s=0.3))
    assert executed.count(runaway) == 1
    assert [(r.ex, r.failure) for r in records] == [(False, "timeout")] * 3


@pytest.mark.parametrize("em,ex", [(True, True), (True, False), (False, True), (False, False)])
def test_score_run_judges_every_predicted_example_through_score_em_and_score_ex(
        bundle, monkeypatch, em, ex):
    """Each judge sees every example once when its metric is on, and none
    when it is off: a missing or errored prediction as None."""
    from collections import Counter

    import sqlbench.metrics as metrics

    examples = _scoring_examples(bundle)
    predictions = _scoring_predictions(examples)
    judged = {"score_em": [], "score_ex": []}
    for name, calls in judged.items():
        monkeypatch.setattr(metrics, name, _counting(calls, getattr(metrics, name)))
    score_run(examples, predictions, bundle, ScoreOptions(em=em, ex=ex, timeout_s=10))
    given = [predictions.get(e.index) for e in examples]
    predicted = Counter(None if p is None or p.error else p.extracted_sql for p in given)
    assert 0 < predicted[None] < len(examples)
    assert Counter(judged["score_em"]) == (predicted if em else Counter())
    assert Counter(judged["score_ex"]) == (predicted if ex else Counter())


# gold case -> (gold SQL, the database file, the metrics a wrong prediction leaves null)
_GOLD_CASES = {
    "control": ("SELECT count(*) FROM singer", True, ()),
    "outside-the-grammar": ("SELECT name FROM singer WHERE EXISTS (SELECT 1)", True, ("em",)),
    "no-database-file": ("SELECT count(*) FROM singer", False, ("ex",)),
    "gold-does-not-execute": ("SELECT broken FROM nowhere", True, ("ex",)),
}


@pytest.mark.parametrize("em,ex", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("case", list(_GOLD_CASES))
def test_a_prediction_error_leaves_null_what_a_wrong_prediction_leaves_null(
        bundle, case, em, ex):
    """A missing and an errored prediction are judged like a wrong, present
    one: the same metrics are null, the others false, and the record names
    the prediction error."""
    from dataclasses import replace

    gold_sql, has_file, gold_nulls = _GOLD_CASES[case]
    example = replace(bundle.splits["dev"][0], gold_sql=gold_sql)
    if not has_file:
        bundle = replace(bundle, db_files={})
    options = ScoreOptions(em=em, ex=ex, timeout_s=10)
    wrong, missing, errored = (score_run([example], given, bundle, options)[0] for given in (
        {example.index: prediction(example.index, "SELECT 1")},
        {},
        {example.index: Prediction(example.index, "", "", 1.0, 1, error="HTTP 500")},
    ))
    nulls = {"em": not em or "em" in gold_nulls, "ex": not ex or "ex" in gold_nulls}
    assert {"em": wrong.em is None, "ex": wrong.ex is None} == nulls
    assert wrong.em is not True and wrong.ex is not True
    for record in (missing, errored):
        assert record.em is (None if nulls["em"] else False)
        assert record.ex is (None if nulls["ex"] else False)
        assert record.ves_ratio is None
        assert record.failure == "prediction-error"
        assert record.difficulty == wrong.difficulty


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
    """Every connection scoring opened is closed, also when a call that
    each example makes, its gold's execution, fails part way."""
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
            return execute_sql(*args)

        monkeypatch.setattr(metrics, "execute_sql", failing)
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

    def test_each_correct_prediction_is_timed_and_each_gold_once(self, bundle, monkeypatch):
        """Sharing executions leaves the VES timings as they were: one per
        distinct gold with a correct prediction, and one per correct
        prediction, echoes and repeated texts included."""
        from dataclasses import replace

        import sqlbench.metrics as metrics

        examples = [replace(e, index=round_ * 1000 + e.index)
                    for round_ in range(2) for e in _scoring_examples(bundle)]
        predictions = _scoring_predictions(examples)
        timed = []
        monkeypatch.setattr(metrics, "median_elapsed", _counting(timed, metrics.median_elapsed))
        records = score_run(examples, predictions, bundle, ScoreOptions(ves=True, timeout_s=10))
        correct = [(ex, r) for ex, r in zip(examples, records) if r.ex]
        assert len(correct) > len({ex.gold_sql for ex, _ in correct}) > 1
        assert all(r.ves_ratio is not None for _, r in correct)
        assert len(timed) == len(correct) + len({ex.gold_sql for ex, _ in correct})

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

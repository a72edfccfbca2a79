"""Scoring: exact-set match, execution accuracy, and valid efficiency score."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .artifacts import is_text, writing
from .datasets import BIRD, DatabaseSchema, DatasetBundle, DifficultyLabel, ExampleTriple
from .execution import (
    DB_UNAVAILABLE,
    ExecutionFailure,
    ReusedConnection,
    execute_sql,
    has_top_level_order_by,
    median_elapsed,
    results_match,
)
from .inference import MAX_WAIT_S
from .sqlkit import SqlParseError, SqlUnit, classify_difficulty, em_match, parse_sql

PREDICTION_ERROR = "prediction-error"
PARSE_ERROR = "parse-error"
GOLD_ERROR = "gold-error"


@dataclass
class EvalRecord:
    example_index: int
    em: bool | None
    ex: bool | None
    ves_ratio: float | None
    difficulty: DifficultyLabel | None
    failure: str | None = None

    def to_json(self) -> str:
        """The fields in order; a difficulty is its scheme and label."""
        difficulty = None if self.difficulty is None else vars(self.difficulty)
        return json.dumps({**vars(self), "difficulty": difficulty}, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str | bytes) -> "EvalRecord":
        """The record a line holds; TypeError if it is JSON but not a record
        or a field has the wrong type, ValueError if it is not JSON or its
        difficulty is not a label of a known scheme."""
        r = cls(**json.loads(line))
        if r.difficulty is not None:
            r.difficulty = DifficultyLabel(**r.difficulty)
        valid = {
            "example_index": type(r.example_index) is int,
            "em": type(r.em) in (bool, type(None)),
            "ex": type(r.ex) in (bool, type(None)),
            "ves_ratio": type(r.ves_ratio) in (int, float, type(None)),
            "failure": r.failure is None or is_text(r.failure),
        }
        wrong = [name for name, ok in valid.items() if not ok]
        if wrong:
            raise TypeError(f"wrong type of {', '.join(wrong)}")
        return r


@dataclass
class ScoreOptions:
    em: bool = True
    ex: bool = True
    ves: bool = False
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if not 0 < self.timeout_s <= MAX_WAIT_S:
            raise ValueError(f"timeout_s must be positive and at most {MAX_WAIT_S} (one day)")


class _Database:
    """One database of a run, and each distinct SQL text judged on it so far."""

    def __init__(self, schema: DatabaseSchema, db_file: str | Path | None,
                 timeout_s: float, connection: ReusedConnection) -> None:
        self.schema = schema
        self.db_file = db_file
        self.timeout_s = timeout_s
        self.connection = connection
        self.available = db_file is not None and Path(db_file).is_file()
        self.queries: dict[str, _Query] = {}

    def query(self, sql: str) -> "_Query":
        """The one judgement of ``sql`` here, gold or prediction."""
        query = self.queries.get(sql)
        if query is None:
            query = self.queries[sql] = _Query(sql, self)
        return query


class _Query:
    """One distinct (db_id, SQL text) of a run, gold or prediction. Each fact
    about it is worked out on first use and shared by every example it serves."""

    def __init__(self, sql: str, db: _Database) -> None:
        self.sql = sql
        self.db = db

    @cached_property
    def unit(self) -> SqlUnit | None:
        """The parsed text, or None outside the clause grammar."""
        try:
            return parse_sql(self.sql, self.db.schema)
        except SqlParseError:
            return None

    @cached_property
    def difficulty(self) -> DifficultyLabel | None:
        return None if self.unit is None else classify_difficulty(self.unit)

    @cached_property
    def ordered(self) -> bool:
        """Whether the text orders its rows, so that EX compares sequences."""
        return has_top_level_order_by(self.sql)

    @cached_property
    def rows(self) -> list[tuple] | str:
        """The rows of the text, or the kind of its ExecutionFailure."""
        db = self.db
        try:
            return execute_sql(self.sql, db.connection.get(db.db_file), db.timeout_s).rows
        except ExecutionFailure as failure:
            return failure.kind

    @cached_property
    def elapsed(self) -> float | None:
        """The gold's median time for VES, or None if a timing run failed."""
        try:
            return median_elapsed(self.sql, self.db.db_file, self.db.timeout_s, self.db.connection)
        except ExecutionFailure:
            return None


def score_em(pred_sql: str | None, gold: _Query) -> tuple[bool | None, str | None]:
    """Clause-set match of the prediction with the gold, and its failure:
    None for a gold outside the clause grammar, which EM leaves out, False
    for a missing or errored prediction (None), and False with
    ``parse-error`` for a prediction outside the grammar."""
    if gold.unit is None:
        return None, None
    if pred_sql is None:
        return False, None
    pred_unit = gold.db.query(pred_sql).unit
    if pred_unit is None:
        return False, PARSE_ERROR
    return em_match(pred_unit, gold.unit), None


def score_ex(pred_sql: str | None, gold: _Query,
             ves: bool) -> tuple[bool | None, float | None, str | None]:
    """Execution match of the prediction with the gold, its efficiency ratio
    and its failure. With no database, or a gold that does not execute,
    there is no verdict; otherwise a missing or errored prediction (None)
    is False. A gold echo, whose rows are the gold's own, is correct with no
    comparison: SQLite returns no NaN, so a row list always matches itself.
    Otherwise the prediction's rows are compared with the gold's: as a
    sequence when the gold has a top-level ORDER BY, as a multiset of tuples
    otherwise. On a correct prediction with ``ves`` set, both queries are
    timed on the scoring connection (a median of 3 runs each, the gold's
    once per run) for the ratio sqrt(gold_time / pred_time)."""
    db = gold.db
    if not db.available:
        return None, None, DB_UNAVAILABLE
    if isinstance(gold.rows, str):
        return None, None, GOLD_ERROR
    if pred_sql is None:
        return False, None, None
    pred_rows = db.query(pred_sql).rows
    if isinstance(pred_rows, str):
        return False, None, pred_rows
    ex = pred_rows is gold.rows or results_match(gold.rows, pred_rows, gold.ordered)
    ves_ratio = None
    if ex and ves and gold.elapsed is not None:
        try:
            pred_time = median_elapsed(pred_sql, db.db_file, db.timeout_s, db.connection)
            ves_ratio = math.sqrt(gold.elapsed / pred_time)
        except ExecutionFailure:
            ves_ratio = None  # timing rerun failed; the verdict stands
    return ex, ves_ratio, None


def score_run(
    examples: list[ExampleTriple],
    predictions: dict[int, object],
    bundle: DatasetBundle,
    options: ScoreOptions | None = None,
) -> list[EvalRecord]:
    """Score every example of the run: exactly one EvalRecord per example,
    in example order. Each judge whose metric is on sees every example; one
    without a prediction, or whose prediction errored, is judged as None,
    so its metrics are null exactly where a present prediction's would be,
    and its record's failure is ``prediction-error``.

    Examples are scored a database at a time. Each distinct (db_id, SQL
    text), gold or prediction, is parsed and executed at most once per run,
    since the same text on the same read-only database gives the same rows:
    a query that calls random() scores as one execution, and a text that
    timed out is not rerun. A gold is also classified and (for VES) timed
    once, each correct prediction on its own. A database's parses and rows
    are dropped once its examples are scored. Scoring runs on the calling
    thread over one read-only connection, kept open to the database it used
    last until the run ends, so each database is opened once.
    """
    options = options or ScoreOptions()
    bird = bundle.dialect == BIRD
    positions: dict[str, list[int]] = {}  # db_id -> positions of its examples
    for position, example in enumerate(examples):
        positions.setdefault(example.db_id, []).append(position)
    records: list[EvalRecord | None] = [None] * len(examples)
    with ReusedConnection() as connection:
        for db_id, members in positions.items():
            db = _Database(bundle.schemas[db_id], bundle.db_files.get(db_id),
                           options.timeout_s, connection)
            for position in members:
                example = examples[position]
                gold = db.query(example.gold_sql)
                prediction = predictions.get(example.index)
                errored = prediction is None or getattr(prediction, "error", None)
                pred_sql = None if errored else prediction.extracted_sql
                em = ex = ves_ratio = em_failure = ex_failure = None
                if options.em:
                    em, em_failure = score_em(pred_sql, gold)
                if options.ex:
                    ex, ves_ratio, ex_failure = score_ex(pred_sql, gold, options.ves)
                # a prediction error names the record, then an execution
                # failure, then a parse error
                failure = PREDICTION_ERROR if pred_sql is None else ex_failure or em_failure
                records[position] = EvalRecord(
                    example.index, em, ex, ves_ratio,
                    example.difficulty if bird else gold.difficulty, failure)
    return records


def write_eval_records(records: list[EvalRecord], path: str | Path) -> None:
    with writing(path) as fp:
        for record in records:
            fp.write(record.to_json())
            fp.write("\n")


def read_eval_records(path: str | Path) -> list[EvalRecord]:
    """The records ``write_eval_records`` wrote, in order. ValueError names
    the first line that is not a record or repeats an example index."""
    records: dict[int, EvalRecord] = {}
    with open(path, "rb") as fp:
        for lineno, line in enumerate(fp, start=1):
            try:
                record = EvalRecord.from_json(line)
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: not an evaluation record: {exc}") from None
            if records.setdefault(record.example_index, record) is not record:
                raise ValueError(f"{path}:{lineno}: example {record.example_index} recorded twice")
    return list(records.values())

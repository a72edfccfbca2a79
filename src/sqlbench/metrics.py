"""Scoring: exact-set match, execution accuracy, and valid efficiency score."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .artifacts import writing
from .datasets import BIRD, DatabaseSchema, DatasetBundle, DifficultyLabel, ExampleTriple
from .execution import (
    DB_UNAVAILABLE,
    ExecOutcome,
    ExecutionFailure,
    ReusedConnection,
    execute_sql,
    median_elapsed,
    results_match,
)
from .sqlkit import SqlParseError, SqlUnit, classify_difficulty, em_match, parse_sql

PREDICTION_ERROR = "prediction-error"
PARSE_ERROR = "parse-error"
GOLD_ERROR = "gold-error"

class GoldExecutionError(Exception):
    """The gold query itself failed to execute: a dataset error, not a score."""


def score_em(pred_sql: str, gold_sql: str, schema: DatabaseSchema) -> bool:
    """Clause-set match; a prediction that fails to parse is a non-match."""
    gold_unit = parse_sql(gold_sql, schema)
    try:
        pred_unit = parse_sql(pred_sql, schema)
    except SqlParseError:
        return False
    return em_match(pred_unit, gold_unit)


@dataclass
class ExScore:
    ex: bool | None
    ves_ratio: float | None
    failure: str | None


def score_ex(
    pred_sql: str,
    gold_sql: str,
    db_file: str | Path | None,
    timeout_s: float = 30.0,
    ves: bool = False,
) -> ExScore:
    """Execute both queries and compare result sets.

    The gold result is compared as an ordered sequence when the gold query
    has a top-level ORDER BY, as a multiset of tuples otherwise. On a correct
    prediction with ``ves`` set, the efficiency ratio
    sqrt(gold_elapsed / pred_elapsed) is computed from median-of-3 timings.
    """
    if not _db_available(db_file):
        return ExScore(ex=None, ves_ratio=None, failure=DB_UNAVAILABLE)
    with ReusedConnection() as connection:
        gold = _Gold(gold_sql, None, db_file, timeout_s, connection)
        if isinstance(gold.result, GoldExecutionError):
            raise gold.result
        return _judge(gold, pred_sql, ves)


def _db_available(db_file: str | Path | None) -> bool:
    return db_file is not None and Path(db_file).is_file()


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


@dataclass
class ScoreOptions:
    em: bool = True
    ex: bool = True
    ves: bool = False
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")


class _Gold:
    """One distinct (db_id, gold_sql) of a run. Each fact about it is worked
    out on first use and then shared by every example with this gold."""

    def __init__(self, sql: str, schema: DatabaseSchema | None, db_file: str | Path | None,
                 timeout_s: float, connection: ReusedConnection) -> None:
        self.sql = sql
        self.schema = schema
        self.db_file = db_file
        self.timeout_s = timeout_s
        self.connection = connection

    @cached_property
    def unit(self) -> SqlUnit | None:
        """The parsed gold, or None outside the clause grammar."""
        try:
            return parse_sql(self.sql, self.schema)
        except SqlParseError:
            return None

    @cached_property
    def difficulty(self) -> DifficultyLabel | None:
        return None if self.unit is None else classify_difficulty(self.unit)

    @cached_property
    def db_available(self) -> bool:
        return _db_available(self.db_file)

    @cached_property
    def result(self) -> ExecOutcome | GoldExecutionError:
        """The gold's rows, or the error of a gold that does not execute."""
        try:
            return execute_sql(self.sql, self.connection.get(self.db_file), self.timeout_s)
        except ExecutionFailure as failure:
            return GoldExecutionError(f"gold query failed: {failure}")

    @cached_property
    def elapsed(self) -> float | None:
        """The gold's median time for VES, or None if a timing run failed."""
        try:
            return median_elapsed(self.sql, self.db_file, self.timeout_s, self.connection)
        except ExecutionFailure:
            return None


def _judge(gold: _Gold, pred_sql: str, ves: bool) -> ExScore:
    """Execute the prediction and compare it with the gold's result. On a
    correct prediction with ``ves`` set, both queries are timed on the
    scoring connection for the efficiency ratio."""
    try:
        pred_out = execute_sql(pred_sql, gold.connection.get(gold.db_file), gold.timeout_s)
    except ExecutionFailure as failure:
        return ExScore(ex=False, ves_ratio=None, failure=failure.kind)
    ex = results_match(gold.result.rows, pred_out.rows, gold.result.ordered)
    ves_ratio = None
    if ex and ves and gold.elapsed is not None:
        try:
            pred_time = median_elapsed(pred_sql, gold.db_file, gold.timeout_s, gold.connection)
            ves_ratio = math.sqrt(gold.elapsed / pred_time)
        except ExecutionFailure:
            ves_ratio = None  # timing rerun failed; the verdict stands
    return ExScore(ex=ex, ves_ratio=ves_ratio, failure=None)


def _score_one(
    example: ExampleTriple,
    prediction,
    gold: _Gold,
    bundle: DatasetBundle,
    options: ScoreOptions,
) -> EvalRecord:
    difficulty = example.difficulty if bundle.dialect == BIRD else gold.difficulty
    if prediction is None or getattr(prediction, "error", None):
        return EvalRecord(
            example_index=example.index,
            em=False if options.em else None,
            ex=False if options.ex else None,
            ves_ratio=None,
            difficulty=difficulty,
            failure=PREDICTION_ERROR,
        )
    pred_sql = prediction.extracted_sql

    em = None  # an unparseable gold is excluded from EM, kept for EX
    pred_unparseable = False
    if options.em and gold.unit is not None:
        try:
            pred_unit = parse_sql(pred_sql, gold.schema)
        except SqlParseError:
            em, pred_unparseable = False, True
        else:
            em = em_match(pred_unit, gold.unit)

    ex = None
    ves_ratio = None
    failure = None
    if options.ex:
        if not gold.db_available:
            failure = DB_UNAVAILABLE
        elif isinstance(gold.result, GoldExecutionError):
            failure = GOLD_ERROR
        else:
            result = _judge(gold, pred_sql, options.ves)
            ex, ves_ratio, failure = result.ex, result.ves_ratio, result.failure
    if failure is None and pred_unparseable:
        # the prediction is outside the clause grammar; execution verdicts,
        # when computed, still stand on their own
        failure = PARSE_ERROR
    return EvalRecord(
        example_index=example.index,
        em=em,
        ex=ex,
        ves_ratio=ves_ratio,
        difficulty=difficulty,
        failure=failure,
    )


def score_run(
    examples: list[ExampleTriple],
    predictions: dict[int, object],
    bundle: DatasetBundle,
    options: ScoreOptions | None = None,
) -> list[EvalRecord]:
    """Score every example of the run: exactly one EvalRecord per example,
    in example order. Examples without a prediction score as prediction
    errors rather than aborting.

    Examples are scored in groups sharing one (db_id, gold_sql): the gold is
    parsed, classified, executed and (for VES) timed at most once per run,
    and its rows are dropped when its last example has been scored.
    Predictions always execute. Scoring runs on the calling thread, over one
    read-only connection kept open to the database it used last until the
    run ends; a database's groups are scored together, so each database is
    opened once.
    """
    options = options or ScoreOptions()
    groups: dict[str, dict[str, list[int]]] = {}  # db_id -> gold_sql -> positions
    for position, example in enumerate(examples):
        groups.setdefault(example.db_id, {}).setdefault(example.gold_sql, []).append(position)
    records: list[EvalRecord | None] = [None] * len(examples)
    with ReusedConnection() as connection:
        for db_id, golds in groups.items():
            for gold_sql, positions in golds.items():
                gold = _Gold(gold_sql, bundle.schemas[db_id], bundle.db_files.get(db_id),
                             options.timeout_s, connection)
                for position in positions:
                    example = examples[position]
                    records[position] = _score_one(
                        example, predictions.get(example.index), gold, bundle, options
                    )
    return records


def write_eval_records(records: list[EvalRecord], path: str | Path) -> None:
    with writing(path) as fp:
        for record in records:
            fp.write(record.to_json())
            fp.write("\n")


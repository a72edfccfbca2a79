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


class _Gold:
    """One distinct (db_id, gold_sql) of a run. Each fact about it is worked
    out on first use and then shared by every example with this gold."""

    def __init__(self, sql: str, schema: DatabaseSchema, db_file: str | Path | None,
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
    def ordered(self) -> bool:
        """Whether the gold orders its rows, so that EX compares sequences."""
        return has_top_level_order_by(self.sql)

    @cached_property
    def db_available(self) -> bool:
        return self.db_file is not None and Path(self.db_file).is_file()

    @cached_property
    def rows(self) -> list[tuple] | None:
        """The gold's rows, or None for a gold that does not execute."""
        try:
            return execute_sql(self.sql, self.connection.get(self.db_file), self.timeout_s).rows
        except ExecutionFailure:
            return None

    @cached_property
    def elapsed(self) -> float | None:
        """The gold's median time for VES, or None if a timing run failed."""
        try:
            return median_elapsed(self.sql, self.db_file, self.timeout_s, self.connection)
        except ExecutionFailure:
            return None


def score_em(pred_sql: str, gold: _Gold) -> tuple[bool | None, str | None]:
    """Clause-set match of the prediction with the gold, and its failure:
    None for a gold outside the clause grammar, which EM leaves out, and
    False with ``parse-error`` for a prediction outside it."""
    if gold.unit is None:
        return None, None
    try:
        pred_unit = parse_sql(pred_sql, gold.schema)
    except SqlParseError:
        return False, PARSE_ERROR
    return em_match(pred_unit, gold.unit), None


def score_ex(pred_sql: str, gold: _Gold,
             ves: bool) -> tuple[bool | None, float | None, str | None]:
    """Execution match of the prediction with the gold, its efficiency ratio
    and its failure. With no database, or a gold that does not execute,
    there is no verdict. Otherwise the prediction executes and its rows are
    compared with the gold's: as a sequence when the gold has a top-level
    ORDER BY, as a multiset of tuples otherwise. On a correct prediction
    with ``ves`` set, both queries are timed on the scoring connection (a
    median of 3 runs each) for the ratio sqrt(gold_time / pred_time)."""
    if not gold.db_available:
        return None, None, DB_UNAVAILABLE
    if gold.rows is None:
        return None, None, GOLD_ERROR
    try:
        pred_out = execute_sql(pred_sql, gold.connection.get(gold.db_file), gold.timeout_s)
    except ExecutionFailure as failure:
        return False, None, failure.kind
    ex = results_match(gold.rows, pred_out.rows, gold.ordered)
    ves_ratio = None
    if ex and ves and gold.elapsed is not None:
        try:
            pred_time = median_elapsed(pred_sql, gold.db_file, gold.timeout_s, gold.connection)
            ves_ratio = math.sqrt(gold.elapsed / pred_time)
        except ExecutionFailure:
            ves_ratio = None  # timing rerun failed; the verdict stands
    return ex, ves_ratio, None


def _score_one(
    example: ExampleTriple,
    prediction,
    gold: _Gold,
    bundle: DatasetBundle,
    options: ScoreOptions,
) -> EvalRecord:
    difficulty = example.difficulty if bundle.dialect == BIRD else gold.difficulty
    if prediction is None or getattr(prediction, "error", None):
        return EvalRecord(example.index, False if options.em else None,
                          False if options.ex else None, None, difficulty, PREDICTION_ERROR)
    em = ex = ves_ratio = em_failure = ex_failure = None
    if options.em:
        em, em_failure = score_em(prediction.extracted_sql, gold)
    if options.ex:
        ex, ves_ratio, ex_failure = score_ex(prediction.extracted_sql, gold, options.ves)
    # an execution failure names the record; a parse error only when there is none
    return EvalRecord(example.index, em, ex, ves_ratio, difficulty, ex_failure or em_failure)


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

"""Scoring: exact-set match, execution accuracy, and valid efficiency score."""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .datasets import BIRD, DatabaseSchema, DatasetBundle, DifficultyLabel, ExampleTriple
from .execution import (
    DB_UNAVAILABLE,
    ExecutionFailure,
    execute_sql,
    median_elapsed,
    results_match,
)
from .sqlkit import SqlParseError, classify_difficulty, em_match, parse_sql

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
    if db_file is None or not Path(db_file).is_file():
        return ExScore(ex=None, ves_ratio=None, failure=DB_UNAVAILABLE)
    try:
        gold_out = execute_sql(gold_sql, db_file, timeout_s)
    except ExecutionFailure as failure:
        raise GoldExecutionError(f"gold query failed: {failure}") from failure
    try:
        pred_out = execute_sql(pred_sql, db_file, timeout_s)
    except ExecutionFailure as failure:
        return ExScore(ex=False, ves_ratio=None, failure=failure.kind)
    ex = results_match(gold_out.rows, pred_out.rows, gold_out.ordered)
    ves_ratio = None
    if ex and ves:
        try:
            gold_time = median_elapsed(gold_sql, db_file, timeout_s)
            pred_time = median_elapsed(pred_sql, db_file, timeout_s)
            ves_ratio = math.sqrt(gold_time / pred_time)
        except ExecutionFailure:
            ves_ratio = None  # timing rerun failed; the verdict stands
    return ExScore(ex=ex, ves_ratio=ves_ratio, failure=None)


@dataclass
class EvalRecord:
    example_index: int
    em: bool | None
    ex: bool | None
    ves_ratio: float | None
    difficulty: DifficultyLabel | None
    failure: str | None = None

    def to_json(self) -> str:
        payload = {
            "example_index": self.example_index,
            "em": self.em,
            "ex": self.ex,
            "ves_ratio": self.ves_ratio,
            "difficulty": None
            if self.difficulty is None
            else {"scheme": self.difficulty.scheme, "label": self.difficulty.label},
            "failure": self.failure,
        }
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "EvalRecord":
        raw = json.loads(line)
        difficulty = raw.get("difficulty")
        return cls(
            example_index=raw["example_index"],
            em=raw.get("em"),
            ex=raw.get("ex"),
            ves_ratio=raw.get("ves_ratio"),
            difficulty=None if difficulty is None else DifficultyLabel(**difficulty),
            failure=raw.get("failure"),
        )


@dataclass
class ScoreOptions:
    em: bool = True
    ex: bool = True
    ves: bool = False
    timeout_s: float = 30.0
    workers: int = 4


def _difficulty_for(example: ExampleTriple, bundle: DatasetBundle,
                    cache: dict) -> DifficultyLabel | None:
    if bundle.dialect == BIRD:
        return example.difficulty
    key = (example.db_id, example.gold_sql)
    if key not in cache:
        try:
            unit = parse_sql(example.gold_sql, bundle.schemas[example.db_id])
            cache[key] = classify_difficulty(unit)
        except SqlParseError:
            cache[key] = None
    return cache[key]


def _score_one(
    example: ExampleTriple,
    prediction,
    bundle: DatasetBundle,
    options: ScoreOptions,
    difficulty: DifficultyLabel | None,
) -> EvalRecord:
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
    schema = bundle.schemas[example.db_id]

    em = None
    pred_unparseable = False
    if options.em:
        try:
            em = score_em(pred_sql, example.gold_sql, schema)
        except SqlParseError:
            em = None  # unparseable gold: excluded from EM, kept for EX
        if em is False:
            try:
                parse_sql(pred_sql, schema)
            except SqlParseError:
                pred_unparseable = True

    ex = None
    ves_ratio = None
    failure = None
    if options.ex:
        db_file = bundle.db_files.get(example.db_id)
        try:
            result = score_ex(pred_sql, example.gold_sql, db_file, options.timeout_s, options.ves)
            ex, ves_ratio, failure = result.ex, result.ves_ratio, result.failure
        except GoldExecutionError:
            ex, failure = None, GOLD_ERROR
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
    errors rather than aborting."""
    options = options or ScoreOptions()
    cache: dict = {}
    difficulties = [_difficulty_for(ex, bundle, cache) for ex in examples]
    jobs = [
        (example, predictions.get(example.index), difficulty)
        for example, difficulty in zip(examples, difficulties)
    ]
    # VES timings taken while other scoring threads run would measure their
    # contention rather than the queries, so VES runs score one at a time
    if options.ex and not options.ves and options.workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=options.workers) as pool:
            records = list(
                pool.map(
                    lambda job: _score_one(job[0], job[1], bundle, options, job[2]),
                    jobs,
                )
            )
    else:
        records = [_score_one(ex, pred, bundle, options, d) for ex, pred, d in jobs]
    return records


def write_eval_records(records: list[EvalRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for record in records:
            fp.write(record.to_json())
            fp.write("\n")


def read_eval_records(path: str | Path) -> list[EvalRecord]:
    records = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                records.append(EvalRecord.from_json(line))
    return records

"""Readers and a check that only tests use: the inverses of the files the
pipeline writes, and the canonical re-ordering of a parsed query."""

from __future__ import annotations

import json
from pathlib import Path

import yaml

from sqlbench.corpus import TrainProfile
from sqlbench.datasets import DifficultyLabel
from sqlbench.metrics import EvalRecord
from sqlbench.sqlkit import SqlUnit


def _json_lines(path: str | Path) -> list:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def read_corpus(path: str | Path) -> list[dict]:
    return _json_lines(path)


def read_eval_records(path: str | Path) -> list[EvalRecord]:
    records = []
    for raw in _json_lines(path):
        difficulty = raw["difficulty"]
        records.append(EvalRecord(
            **{**raw, "difficulty": None if difficulty is None else DifficultyLabel(**difficulty)}
        ))
    return records


def load_train_profile(path: str | Path) -> TrainProfile:
    with open(path, encoding="utf-8") as fp:
        return TrainProfile(**yaml.safe_load(fp))


def canon(unit: SqlUnit) -> SqlUnit:
    """Re-apply canonical ordering; idempotent on parser output."""
    return SqlUnit.build(
        select_distinct=unit.select_distinct,
        select_items=unit.select_items,
        from_tables=unit.from_tables,
        from_subqueries=tuple(canon(sub) for sub in unit.from_subqueries),
        join_conds=unit.join_conds,
        join_connectors=unit.join_connectors,
        where_preds=unit.where_preds,
        where_connectors=unit.where_connectors,
        group_by=unit.group_by,
        having_preds=unit.having_preds,
        having_connectors=unit.having_connectors,
        order_by=unit.order_by,
        limit=unit.limit,
        set_op=None if unit.set_op is None else (unit.set_op[0], canon(unit.set_op[1])),
    )

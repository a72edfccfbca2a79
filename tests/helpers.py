"""Readers that only tests use: the inverses of the files the pipeline writes."""

from __future__ import annotations

import json
from pathlib import Path

import yaml

from sqlbench.corpus import TrainProfile
from sqlbench.datasets import DifficultyLabel
from sqlbench.metrics import EvalRecord


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

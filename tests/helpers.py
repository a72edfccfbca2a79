"""Readers that only tests use, the inverses of the files the pipeline
writes, a fault injector for the one module that writes them, and one
prediction scored alone."""

from __future__ import annotations

import errno
import json
import os
import random
import types
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from sqlbench import artifacts, runconfig
from sqlbench.corpus import TrainProfile
from sqlbench.inference import Prediction
from sqlbench.metrics import EvalRecord, ScoreOptions, score_run


def read_corpus(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def load_train_profile(path: str | Path) -> TrainProfile:
    with open(path, encoding="utf-8") as fp:
        return TrainProfile(**yaml.safe_load(fp))


def score_pair(bundle, pred_sql: str, gold_sql: str, options: ScoreOptions | None = None,
               db_file: str | Path | None = None) -> EvalRecord:
    """``pred_sql`` scored against ``gold_sql`` by ``score_run``, as the one
    example of its run: the fixture bundle's first dev example, on its
    concert_singer database, or on ``db_file`` in that database's place."""
    example = replace(bundle.splits["dev"][0], gold_sql=gold_sql)
    if db_file is not None:
        bundle = replace(bundle, db_files={**bundle.db_files, example.db_id: db_file})
    predictions = {example.index: Prediction(example.index, pred_sql, pred_sql, 1.0, 1)}
    return score_run([example], predictions, bundle, options)[0]


def load_both_ways(path: str | Path):
    """``load_run_config(path)``'s result, the same with the loader it
    prefers (libyaml, where PyYAML has it) and with the pure-Python
    ``yaml.SafeLoader``, the only one a PyYAML without libyaml has: the
    config and its fingerprint, or the ``ConfigError`` lines."""
    def load():
        try:
            config = runconfig.load_run_config(path)
        except runconfig.ConfigError as exc:
            return exc.errors
        return config, config.fingerprint()

    preferred = load()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runconfig, "YAML_LOADER", yaml.SafeLoader)
        assert load() == preferred, path
    return preferred


class Killed(BaseException):
    """A kill at an injected fault: nothing in the program catches it."""


class Faults:
    """Counts the artifact writer's whole-file writes, renames and appends
    once installed, and fails the ``n``-th call of ``kind``. A whole-file
    write counts once per file; an append counts once per write to an append
    log, which is one record, however long the log is held open. In mode
    ``"oserror"`` a write or append puts a seeded prefix of its bytes on disk
    and raises OSError, as a full disk does, and a rename raises OSError
    before renaming. In mode ``"kill"`` a write or append puts a seeded prefix
    on disk and a rename completes, and then the run stops with ``Killed``."""

    def __init__(self, kind: str | None = None, n: int = 0, mode: str = "oserror",
                 seed: object = 0) -> None:
        self.counts = {"write": 0, "rename": 0, "append": 0}
        self.kind, self.n, self.mode = kind, n, mode
        self.rng = random.Random(seed)

    def install(self, monkeypatch) -> None:
        monkeypatch.setattr(artifacts, "open", self._open, raising=False)
        monkeypatch.setattr(artifacts, "os",
                            types.SimpleNamespace(replace=self._replace, SEEK_END=os.SEEK_END))

    def _due(self, kind: str) -> bool:
        self.counts[kind] += 1
        return kind == self.kind and self.counts[kind] == self.n

    def fail(self) -> None:
        if self.mode == "kill":
            raise Killed(f"killed at {self.kind} {self.n}")
        raise OSError(errno.ENOSPC, f"injected fault at {self.kind} {self.n}")

    def _open(self, file, mode="r", **kwargs):
        fp = open(file, mode, **kwargs)
        if "a" in mode:
            return _Appends(fp, self)
        return _Torn(fp, self) if "w" in mode and self._due("write") else fp

    def _replace(self, src, dst) -> None:
        due = self._due("rename")
        if due and self.mode == "oserror":
            self.fail()
        os.replace(src, dst)
        if due:
            self.fail()


class _Torn:
    """A file that holds back what is written to it; on a clean close it puts
    a seeded prefix of those bytes on disk and fails."""

    def __init__(self, fp, faults: Faults) -> None:
        self.fp, self.faults, self.chunks = fp, faults, []

    def __getattr__(self, name):
        return getattr(self.fp, name)

    def write(self, data) -> int:
        self.chunks.append(data.encode("utf-8") if isinstance(data, str) else data)
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with self.fp:
            if exc_type is None:
                data = b"".join(self.chunks)
                getattr(self.fp, "buffer", self.fp).write(
                    data[:self.faults.rng.randrange(len(data) + 1)])
                self.faults.fail()


class _Appends:
    """An append log each of whose writes is one append; the due one puts a
    seeded prefix of its bytes on disk and fails."""

    def __init__(self, fp, faults: Faults) -> None:
        self.fp, self.faults = fp, faults

    def __getattr__(self, name):
        return getattr(self.fp, name)

    def write(self, data: bytes) -> int:
        if not self.faults._due("append"):
            return self.fp.write(data)
        self.fp.write(data[:self.faults.rng.randrange(len(data) + 1)])
        self.fp.flush()
        self.faults.fail()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.fp.close()

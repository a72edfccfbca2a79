from __future__ import annotations

import os
import sqlite3
from pathlib import Path

import pytest

import sqlbench
from sqlbench.datasets import DatasetSource, load_bundle

FIXTURES = Path(__file__).parent / "fixtures"


def build_fixture_db(target: Path) -> Path:
    conn = sqlite3.connect(target)
    try:
        conn.executescript((FIXTURES / "concert_singer.sql").read_text(encoding="utf-8"))
        conn.commit()
    finally:
        conn.close()
    return target


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def db_root(tmp_path_factory) -> Path:
    """Dataset-layout database directory holding the fixture SQLite file."""
    root = tmp_path_factory.mktemp("databases")
    db_dir = root / "concert_singer"
    db_dir.mkdir()
    build_fixture_db(db_dir / "concert_singer.sqlite")
    return root


@pytest.fixture(scope="session")
def db_file(db_root) -> Path:
    return db_root / "concert_singer" / "concert_singer.sqlite"


@pytest.fixture(scope="session")
def bundle(db_root):
    return load_bundle(DatasetSource(
        name="spider-fixture",
        dialect="spider",
        tables=FIXTURES / "spider" / "tables.json",
        splits={
            "train": FIXTURES / "spider" / "train.json",
            "dev": FIXTURES / "spider" / "dev.json",
        },
        db_dir=db_root,
    ))


@pytest.fixture(scope="session")
def bird_bundle():
    return load_bundle(DatasetSource(
        name="bird-fixture",
        dialect="bird",
        tables=FIXTURES / "bird" / "tables.json",
        splits={"dev": FIXTURES / "bird" / "dev.json"},
    ))


@pytest.fixture()
def scratch_config(tmp_path, db_root) -> Path:
    """A complete run config pointing at the fixture dataset, with the
    endpoint URL left as a placeholder that tests substitute."""
    spider = FIXTURES / "spider"
    config = tmp_path / "run.yaml"
    config.write_text(
        f"""
dataset:
  name: spider-fixture
  dialect: spider
  tables: {spider / 'tables.json'}
  splits:
    train: {spider / 'train.json'}
    dev: {spider / 'dev.json'}
  db_dir: {db_root}
prompt:
  schema_style: sentence
selection:
  strategy: random
  k: 0
  pool: train
endpoint:
  base_url: BASE_URL
  model_name: stub
  max_retries: 2
  concurrency_limit: 4
  backoff_base_s: 0.01
  record_latency: false
metrics:
  em: true
  ex: true
  ves: false
  timeout_s: 10
output_dir: {tmp_path / 'runs'}
seed: 42
""",
        encoding="utf-8",
    )
    return config


def cli_child_env() -> dict[str, str]:
    """Environment for a child `python -m sqlbench.cli` process.

    `PYTHONPATH` starts with the absolute directory holding the `sqlbench`
    package this process imported, so the child runs the same tree under
    test from any working directory, installed or not.
    """
    env = dict(os.environ)
    paths = [str(Path(sqlbench.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def write_config_with_url(config_path: Path, base_url: str) -> Path:
    text = config_path.read_text(encoding="utf-8").replace("BASE_URL", base_url)
    resolved = config_path.with_name("run_resolved.yaml")
    resolved.write_text(text, encoding="utf-8")
    return resolved


def answers_from_examples(examples) -> dict[str, str]:
    """question -> gold SQL map for gold-echo serving."""
    return {ex.question: ex.gold_sql for ex in examples}

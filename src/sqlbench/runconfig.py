"""Run configuration: one structured file drives every pipeline stage.

Paths are resolved relative to the config file. Secrets never live in the
config; the endpoint API key is read from an environment variable named by
``endpoint.api_key_env``. The config fingerprint embedded in reports is a
content hash of every resolved config field except ``output_dir`` and
``endpoint.api_key_env``.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .datasets import DIALECTS
from .inference import ModelEndpoint
from .metrics import ScoreOptions
from .prompts import PromptTemplate
from .selection import SelectionPolicy

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class DatasetConfig:
    name: str
    dialect: str
    tables: Path
    splits: dict[str, Path]
    db_dir: Path | None = None


@dataclass
class SelectionConfig:
    strategy: str = "random"
    k: int = 0
    pool: str = "train"
    seed: int | None = None

    def __post_init__(self) -> None:
        self.policy(default_seed=0)  # raises ValueError on a bad strategy or k

    def policy(self, default_seed: int, k: int | None = None) -> SelectionPolicy:
        return SelectionPolicy(
            strategy=self.strategy,
            k=self.k if k is None else k,
            seed=self.seed if self.seed is not None else default_seed,
        )


@dataclass
class RunConfig:
    dataset: DatasetConfig
    prompt: PromptTemplate = field(default_factory=PromptTemplate)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    endpoint: ModelEndpoint = field(default_factory=ModelEndpoint)
    metrics: ScoreOptions = field(default_factory=ScoreOptions)
    output_dir: Path = Path("runs")
    seed: int = 42

    def fingerprint(self) -> str:
        fields = asdict(self)
        del fields["output_dir"]
        del fields["endpoint"]["api_key_env"]
        canonical = json.dumps(fields, sort_keys=True, ensure_ascii=False, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def scheme(self) -> str:
        return "spider4" if self.dataset.dialect == "spider" else "bird3"


def _section(section, cls, errors: list[str], where: str):
    """The config section built as ``cls``; each unknown key and the
    constructor's ValueError become errors naming the section."""
    if not isinstance(section, dict):
        errors.append(f"{where}: expected a mapping, got {type(section).__name__}")
        return None
    known = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(section) - known
    if unknown:
        errors.append(f"{where}: unknown keys {sorted(unknown)}")
    try:
        return cls(**{k: v for k, v in section.items() if k in known})
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run config; raises ConfigError listing every
    problem found, not just the first."""
    config_path = Path(path)
    errors: list[str] = []
    if not config_path.is_file():
        raise ConfigError([f"config file not found: {config_path}"])
    with open(config_path, encoding="utf-8") as fp:
        try:
            raw = yaml.safe_load(fp) or {}
        except yaml.YAMLError as exc:
            raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    base = config_path.parent

    def resolve(rel) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else (base / p)

    dataset_raw = raw.get("dataset")
    if not isinstance(dataset_raw, dict):
        raise ConfigError(["config must have a dataset section"])
    name = dataset_raw.get("name", "dataset")
    dialect = dataset_raw.get("dialect", "spider")
    if dialect not in DIALECTS:
        errors.append(f"dataset.dialect must be one of {DIALECTS}, got {dialect!r}")
    tables = resolve(dataset_raw.get("tables", "tables.json"))
    if not tables.is_file():
        errors.append(f"dataset.tables not found: {tables}")
    splits = {}
    for split, rel in (dataset_raw.get("splits") or {}).items():
        if split not in ("train", "dev", "test"):
            errors.append(f"dataset.splits: unknown split name {split!r}")
            continue
        split_path = resolve(rel)
        if not split_path.is_file():
            errors.append(f"dataset.splits.{split} not found: {split_path}")
        splits[split] = split_path
    if not splits:
        errors.append("dataset.splits must name at least one split file")
    db_dir = dataset_raw.get("db_dir")
    if db_dir is not None:
        db_dir = resolve(db_dir)
        if not db_dir.is_dir():
            errors.append(f"dataset.db_dir not found: {db_dir}")

    prompt = _section(raw.get("prompt") or {}, PromptTemplate, errors, "prompt")
    selection = _section(raw.get("selection") or {}, SelectionConfig, errors, "selection")
    endpoint = _section(raw.get("endpoint") or {}, ModelEndpoint, errors, "endpoint")
    if endpoint is not None and urlsplit(str(endpoint.base_url)).scheme not in ("http", "https"):
        errors.append(f"endpoint.base_url must be an http:// or https:// URL,"
                      f" got {endpoint.base_url!r}")
    metrics_raw = raw.get("metrics") or {}
    if isinstance(metrics_raw, dict) and "workers" in metrics_raw:
        # scoring runs on one thread; configs that still size a pool load
        logger.warning("metrics.workers is retired and ignored")
        metrics_raw = {k: v for k, v in metrics_raw.items() if k != "workers"}
    metrics = _section(metrics_raw, ScoreOptions, errors, "metrics")
    if errors:
        raise ConfigError(errors)
    return RunConfig(
        dataset=DatasetConfig(
            name=name, dialect=dialect, tables=tables, splits=splits, db_dir=db_dir
        ),
        prompt=prompt,
        selection=selection,
        endpoint=endpoint,
        metrics=metrics,
        output_dir=resolve(raw.get("output_dir", "runs")),
        seed=int(raw.get("seed", 42)),
    )

"""Run configuration: one structured file drives every pipeline stage.

Every key is checked against its section's fields and every value against
its field's annotation. Paths are resolved relative to the config file.
Secrets never live in the config; the endpoint API key is read from an
environment variable named by ``endpoint.api_key_env``. The config
fingerprint embedded in reports is a content hash of every resolved config
field except ``output_dir`` and ``endpoint.api_key_env``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .datasets import DatasetSource
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
    dataset: DatasetSource
    prompt: PromptTemplate = field(default_factory=PromptTemplate)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    endpoint: ModelEndpoint = field(default_factory=ModelEndpoint)
    metrics: ScoreOptions = field(default_factory=ScoreOptions)
    output_dir: Path = Path("runs")
    seed: int = 42

    def fingerprint(self) -> str:
        values = asdict(self)
        del values["output_dir"]
        del values["endpoint"]["api_key_env"]
        canonical = json.dumps(values, sort_keys=True, ensure_ascii=False, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def scheme(self) -> str:
        return "spider4" if self.dataset.dialect == "spider" else "bird3"


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run config; raises ConfigError listing every
    problem found, not just the first."""
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError([f"config file not found: {config_path}"])
    with open(config_path, encoding="utf-8") as fp:
        try:
            raw = yaml.safe_load(fp) or {}
        except yaml.YAMLError as exc:
            raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    base = config_path.parent
    errors: list[str] = []
    paths: dict[str, Path] = {}  # dotted key -> resolved path

    def build(hint, value, key: str):
        """``value`` checked against the annotation ``hint``: a dataclass is
        built from its mapping field by field, a path is resolved against the
        config file's directory. Each problem is recorded in ``errors`` under
        its dotted key; the result is then None."""
        if is_dataclass(hint):
            where = f"{key}: " if key else ""
            value = {} if value is None else value  # an empty section keeps the defaults
            if not isinstance(value, dict):
                errors.append(f"{where}expected a mapping, got {type(value).__name__}")
                return None
            known = fields(hint)
            unknown = set(value) - {f.name for f in known}
            if unknown:
                errors.append(f"{where}unknown keys {sorted(unknown, key=str)}")
            hints = typing.get_type_hints(hint)
            before = len(errors)
            kwargs = {}
            for f in known:
                inner = f"{key}.{f.name}" if key else f.name
                if f.name in value:
                    kwargs[f.name] = build(hints[f.name], value[f.name], inner)
                elif isinstance(f.default, Path):  # a default path is relative to the config too
                    kwargs[f.name] = build(Path, f.default, inner)
                elif f.default is MISSING and f.default_factory is MISSING:
                    errors.append(f"config must have a {inner} section")
            if len(errors) > before:
                return None
            try:
                return hint(**kwargs)
            except ValueError as exc:
                errors.append(f"{where}{exc}")
                return None
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if type(None) in args:  # X | None
            if value is None:
                return None
            (hint,) = (arg for arg in args if arg is not type(None))
            return build(hint, value, key)
        if origin is dict:
            if isinstance(value, dict):
                return {k: build(args[1], v, f"{key}.{k}") for k, v in value.items()}
        elif hint is Path:
            if isinstance(value, (str, Path)):
                resolved = Path(value)
                paths[key] = resolved if resolved.is_absolute() else base / resolved
                return paths[key]
        # an int is a number too, but a bool is not an int
        elif (isinstance(value, (int, float) if hint is float else hint)
              and isinstance(value, bool) == (hint is bool)):
            return value
        errors.append(f"{key} must be {(origin or hint).__name__}, got {value!r}")
        return None

    metrics_raw = raw.get("metrics") if isinstance(raw, dict) else None
    if isinstance(metrics_raw, dict) and "workers" in metrics_raw:
        # scoring runs on one thread; configs that still size a pool load
        logger.warning("metrics.workers is retired and ignored")
        raw["metrics"] = {k: v for k, v in metrics_raw.items() if k != "workers"}
    config = build(RunConfig, raw, "")
    # the dataset's files are looked for even when another of its fields is bad
    for key, found in paths.items():
        exists = found.is_dir() if key == "dataset.db_dir" else found.is_file()
        if key.startswith("dataset.") and not exists:
            errors.append(f"{key} not found: {found}")
    if config is not None:
        if not config.dataset.splits:
            errors.append("dataset.splits must name at least one split file")
        try:  # a malformed host or port raises ValueError
            url = urlsplit(config.endpoint.base_url)
            usable = url.scheme in ("http", "https") and url.hostname and url.port != 0
        except ValueError:
            usable = False
        if not usable:
            errors.append(f"endpoint.base_url must be an http:// or https:// URL with a host,"
                          f" got {config.endpoint.base_url!r}")
    if errors:
        raise ConfigError(errors)
    return config

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
import io
import json
import logging
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .artifacts import is_text
from .datasets import DatasetSource
from .inference import ModelEndpoint
from .metrics import ScoreOptions
from .prompts import PromptTemplate
from .selection import SelectionPolicy

logger = logging.getLogger(__name__)

# libyaml where PyYAML was built with it: the same constructor and resolver as
# yaml.SafeLoader, so the same values, parsed several times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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


def _load_yaml(stream, loader_class: type) -> object:
    """``yaml.load(stream, Loader=loader_class)``, but a key given twice in
    one mapping is a ConfigError: either loader would keep its last value
    without a word. An explicit key that overrides one merged in with
    ``<<`` is not a repeat."""
    loader = loader_class(stream)
    try:
        root = loader.get_single_node()
        repeated: list[tuple[int, str]] = []  # (first line, error)
        walked: set[int] = set()  # an alias is its anchor's node: walked once
        stack = [(root, "")] if root is not None else []
        while stack:
            node, where = stack.pop()
            if id(node) in walked or isinstance(node, yaml.ScalarNode):
                continue
            walked.add(id(node))
            if isinstance(node, yaml.SequenceNode):
                stack += [(item, where) for item in node.value]
                continue
            lines: dict[object, list[int]] = {}  # key -> the lines it is given on
            for key_node, value_node in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":  # its keys are this mapping's
                    stack.append((value_node, where))
                    continue
                key = (loader.construct_object(key_node)
                       if isinstance(key_node, yaml.ScalarNode) else key_node)
                lines.setdefault(key, []).append(key_node.start_mark.line + 1)
                stack.append((value_node, f"{where}{key}."))
            repeated += [(on[0], f"{where}{key}: key repeated, on lines {', '.join(map(str, on))}")
                         for key, on in lines.items() if len(on) > 1]
        if repeated:
            raise ConfigError([error for _, error in sorted(repeated)])
        return None if root is None else loader.construct_document(root)
    finally:
        loader.dispose()


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run config; raises ConfigError listing every
    problem found, not just the first."""
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigError([f"config file not found: {config_path}"])
    try:
        text = config_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {config_path}: {exc}"]) from exc
    try:
        raw = _load_yaml(text, YAML_LOADER)
    except yaml.YAMLError:
        # libyaml words its errors otherwise and refuses some text the
        # pure-Python loader takes (a lone surrogate escape, which is then
        # refused by key below), so the pure-Python loader has the last word
        stream = io.StringIO(text)
        stream.name = str(config_path)  # its error marks name the file
        try:
            raw = _load_yaml(stream, yaml.SafeLoader)
        except yaml.YAMLError as exc:
            raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    raw = raw or {}
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
        if isinstance(value, str) and not is_text(value):
            errors.append(f"{key} does not encode to UTF-8: {value!r}")
            return None
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
            if hint is not float or -math.inf < value < math.inf:  # NaN compares false
                return value
            errors.append(f"{key} must be a finite number, got {value!r}")
            return None
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

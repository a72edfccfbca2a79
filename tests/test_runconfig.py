from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from sqlbench.datasets import DatasetSource
from sqlbench.inference import ModelEndpoint
from sqlbench.metrics import ScoreOptions
from sqlbench.prompts import PromptTemplate
from sqlbench.runconfig import ConfigError, RunConfig, SelectionConfig, load_run_config

# fields that may vary between runs of the same experiment
UNHASHED = {("output_dir",), ("endpoint", "api_key_env")}
# enumerated fields validate, so each moves to another valid value
OTHER_CHOICE = {("prompt", "schema_style"): "compact",
                ("selection", "strategy"): "question-similarity",
                ("dataset", "dialect"): "bird"}


def fixture_run_config() -> RunConfig:
    """The fixture run config of ``conftest.scratch_config``, with paths kept
    relative so that the fingerprint does not depend on the checkout."""
    return RunConfig(
        dataset=DatasetSource(
            name="spider-fixture",
            dialect="spider",
            tables=Path("spider/tables.json"),
            splits={"train": Path("spider/train.json"), "dev": Path("spider/dev.json")},
            db_dir=Path("databases"),
        ),
        prompt=PromptTemplate(schema_style="sentence"),
        selection=SelectionConfig(strategy="random", k=0, pool="train"),
        endpoint=ModelEndpoint(
            base_url="BASE_URL", model_name="stub", max_retries=2, concurrency_limit=4,
            backoff_base_s=0.01, record_latency=False,
        ),
        metrics=ScoreOptions(em=True, ex=True, ves=False, timeout_s=10),
        output_dir=Path("runs"),
        seed=42,
    )


def _leaves(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def _other(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "-other"
    if isinstance(value, Path):
        return value / "other"
    if isinstance(value, dict):
        return {**value, "test": Path("spider/test.json")}
    if value is None:
        return 7
    raise TypeError(f"no other value for {value!r}")


def _with(config: RunConfig, path: tuple[str, ...], value) -> RunConfig:
    if len(path) == 1:
        return dataclasses.replace(config, **{path[0]: value})
    inner = _with(getattr(config, path[0]), path[1:], value)
    return dataclasses.replace(config, **{path[0]: inner})


def test_fingerprint_pinned_and_covers_every_field_but_output_dir_and_key_env():
    config = fixture_run_config()
    # pinned: a config keeps its fingerprint, so its runs stay comparable
    assert config.fingerprint() == "b6831a28fc41"
    for path in _leaves(config):
        value = config
        for name in path:
            value = getattr(value, name)
        changed = _with(config, path, OTHER_CHOICE.get(path) or _other(value)).fingerprint()
        assert (changed == config.fingerprint()) == (path in UNHASHED), ".".join(path)


def _load_with_metrics(config_path: Path, *lines: str) -> RunConfig:
    """The scratch run config, with the given lines added to its metrics."""
    text = config_path.read_text(encoding="utf-8").replace("BASE_URL", "http://127.0.0.1:9/v1")
    out = config_path.with_name("extra.yaml")
    out.write_text(text.replace("  timeout_s: 10\n", "".join(
        ["  timeout_s: 10\n"] + [f"  {line}\n" for line in lines])), encoding="utf-8")
    return load_run_config(out)


def test_retired_workers_key_loads_with_one_warning(scratch_config, caplog):
    with caplog.at_level("WARNING"):
        config = _load_with_metrics(scratch_config, "workers: 8")
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    assert len(warnings) == 1 and "metrics.workers" in warnings[0]
    assert config.fingerprint() == _load_with_metrics(scratch_config).fingerprint()


def test_unknown_metrics_key_is_a_config_error(scratch_config):
    with pytest.raises(ConfigError, match=r"metrics: unknown keys \['bogus'\]"):
        _load_with_metrics(scratch_config, "bogus: 1")


def test_readme_quickstart_config_loads(tmp_path):
    """The README's run.yaml has no unknown key and no value of the wrong
    type; its data files are absent, so only they are reported."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n# run.yaml\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "run.yaml"
    config.write_text(block, encoding="utf-8")
    with pytest.raises(ConfigError) as exc_info:
        load_run_config(config)
    errors = exc_info.value.errors
    assert errors and all(" not found: " in error for error in errors), errors

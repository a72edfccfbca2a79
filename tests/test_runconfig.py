from __future__ import annotations

import dataclasses
from pathlib import Path

from sqlbench.runconfig import (
    DatasetConfig,
    EndpointConfig,
    MetricsConfig,
    PromptConfig,
    RunConfig,
    SelectionConfig,
)

# fields that may vary between runs of the same experiment
UNHASHED = {("output_dir",), ("endpoint", "api_key_env")}


def fixture_run_config() -> RunConfig:
    """The fixture run config of ``conftest.scratch_config``, with paths kept
    relative so that the fingerprint does not depend on the checkout."""
    return RunConfig(
        dataset=DatasetConfig(
            name="spider-fixture",
            dialect="spider",
            tables=Path("spider/tables.json"),
            splits={"train": Path("spider/train.json"), "dev": Path("spider/dev.json")},
            db_dir=Path("databases"),
        ),
        prompt=PromptConfig(schema_style="sentence"),
        selection=SelectionConfig(strategy="random", k=0, pool="train"),
        endpoint=EndpointConfig(
            base_url="BASE_URL", model_name="stub", max_retries=2, concurrency_limit=4,
            backoff_base_s=0.01, record_latency=False,
        ),
        metrics=MetricsConfig(em=True, ex=True, ves=False, timeout_s=10),
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
    assert config.fingerprint() == "07619efee30b"
    for path in _leaves(config):
        value = config
        for name in path:
            value = getattr(value, name)
        changed = _with(config, path, _other(value)).fingerprint()
        assert (changed == config.fingerprint()) == (path in UNHASHED), ".".join(path)

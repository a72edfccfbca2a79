from __future__ import annotations

import dataclasses
import typing
from pathlib import Path

import pytest
import yaml

from sqlbench import runconfig
from sqlbench.datasets import DatasetSource
from sqlbench.inference import ModelEndpoint
from sqlbench.metrics import ScoreOptions
from sqlbench.prompts import PromptTemplate
from sqlbench.runconfig import ConfigError, RunConfig, SelectionConfig, load_run_config

from conftest import write_config_with_url
from helpers import load_both_ways

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


def _with_metrics(config_path: Path, *lines: str) -> Path:
    """The scratch run config, with the given lines added to its metrics."""
    text = config_path.read_text(encoding="utf-8").replace("BASE_URL", "http://127.0.0.1:9/v1")
    out = config_path.with_name("extra.yaml")
    out.write_text(text.replace("  timeout_s: 10\n", "".join(
        ["  timeout_s: 10\n"] + [f"  {line}\n" for line in lines])), encoding="utf-8")
    return out


def test_retired_workers_key_loads_with_one_warning(scratch_config, caplog):
    with caplog.at_level("WARNING"):
        config = load_run_config(_with_metrics(scratch_config, "workers: 8"))
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelname == "WARNING"]
    assert len(warnings) == 1 and "metrics.workers" in warnings[0]
    assert load_both_ways(_with_metrics(scratch_config, "workers: 8")) == (
        config, config.fingerprint())
    assert config.fingerprint() == load_both_ways(_with_metrics(scratch_config))[1]


def test_unknown_metrics_key_is_a_config_error(scratch_config):
    assert load_both_ways(_with_metrics(scratch_config, "bogus: 1")) == [
        "metrics: unknown keys ['bogus']"]


def test_readme_quickstart_config_loads(tmp_path):
    """The README's run.yaml has no unknown key and no value of the wrong
    type; its data files are absent, so only they are reported."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n# run.yaml\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "run.yaml"
    config.write_text(block, encoding="utf-8")
    errors = load_both_ways(config)
    assert isinstance(errors, list) and errors, errors
    assert all(" not found: " in error for error in errors), errors


@pytest.mark.parametrize("spelling", [".nan", ".inf", "-.inf"])
def test_a_float_that_is_not_finite_is_one_config_error(scratch_config, spelling):
    """Every float field of the config, whether its section names it or not."""
    config = fixture_run_config()
    keys = []
    for path in _leaves(config):
        section = config
        for name in path[:-1]:
            section = getattr(section, name)
        if typing.get_type_hints(type(section))[path[-1]] is float:
            keys.append(path)
    assert {".".join(path) for path in keys} == {
        "endpoint.temperature", "endpoint.timeout_s", "endpoint.backoff_base_s",
        "metrics.timeout_s"}
    value = yaml.safe_load(spelling)
    for path in keys:
        raw = yaml.safe_load(scratch_config.read_text(encoding="utf-8").replace(
            "BASE_URL", "http://127.0.0.1:9/v1"))
        raw[path[0]][path[1]] = value
        bad = scratch_config.with_name("not_finite.yaml")
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert f"{path[1]}: {spelling}\n" in bad.read_text(encoding="utf-8")
        assert load_both_ways(bad) == [f"{'.'.join(path)} must be a finite number,"
                                       f" got {value!r}"]


def test_a_key_given_twice_in_one_mapping_is_a_config_error(scratch_config, capsys):
    """A repeated section or key is named, with its lines, and not loaded as
    its last value; each one is a ``config:`` line of its own, in document
    order."""
    from sqlbench.cli import main

    config = write_config_with_url(scratch_config, "http://127.0.0.1:9/v1")
    text = config.read_text(encoding="utf-8") + "seed: 1\nmetrics: {ex: true}\nseed: 2\n"
    twice = config.with_name("twice.yaml")
    twice.write_text(text, encoding="utf-8")

    def on(key):
        return [n for n, line in enumerate(text.splitlines(), 1) if line.startswith(key)]

    (metrics_first, metrics_last), (seed_a, seed_b, seed_c) = on("metrics:"), on("seed:")
    assert load_both_ways(twice) == [
        f"metrics: key repeated, on lines {metrics_first}, {metrics_last}",
        f"seed: key repeated, on lines {seed_a}, {seed_b}, {seed_c}"]
    capsys.readouterr()
    assert main(["ingest", "--config", str(twice)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config: metrics: key repeated, on lines {metrics_first}, {metrics_last}",
        f"config: seed: key repeated, on lines {seed_a}, {seed_b}, {seed_c}"]

    nested = config.with_name("nested.yaml")
    nested.write_text(config.read_text(encoding="utf-8").replace(
        "  timeout_s: 10\n", "  timeout_s: 10\n  em: false\n"), encoding="utf-8")
    line = nested.read_text(encoding="utf-8").splitlines().index("  em: false") + 1
    (error,) = load_both_ways(nested)
    assert error.startswith("metrics.em: key repeated, on lines ") and error.endswith(
        f", {line}")


def test_a_key_that_overrides_a_merged_one_is_not_repeated(scratch_config):
    """``<<`` merges a mapping's keys, and a key given beside it overrides
    the merged one, as YAML's merge key has it; that is not a repeat."""
    config = write_config_with_url(scratch_config, "http://127.0.0.1:9/v1")
    text = config.read_text(encoding="utf-8").replace(
        "selection:\n", "selection: &selection\n").replace(
        "prompt:\n", "prompt:\n  <<: {schema_style: compact, include_evidence: true}\n")
    merged = config.with_name("merged.yaml")
    merged.write_text(text + "x_defaults:\n  <<: *selection\n  k: 1\n", encoding="utf-8")
    assert load_both_ways(merged) == ["unknown keys ['x_defaults']"]
    merged.write_text(text, encoding="utf-8")
    loaded, _ = load_both_ways(merged)
    assert loaded.prompt == PromptTemplate(schema_style="sentence", include_evidence=True)
    assert dataclasses.replace(loaded, prompt=PromptTemplate()) == load_run_config(config)


def test_the_fixture_configs_load_the_same_with_either_loader(scratch_config):
    """The placeholder config (refused for its base_url) and the resolved one."""
    assert load_both_ways(scratch_config) == [
        "endpoint.base_url must be an http:// or https:// URL with a host, got 'BASE_URL'"]
    config, _ = load_both_ways(write_config_with_url(scratch_config, "http://127.0.0.1:9/v1"))
    assert config.endpoint.base_url == "http://127.0.0.1:9/v1"


def test_a_config_that_is_not_yaml_gets_the_pure_python_loaders_message(scratch_config):
    """Whichever loader is tried first, the error names the file and the
    line as yaml.SafeLoader does over a file."""
    bad = scratch_config.with_name("not_yaml.yaml")
    bad.write_text("seed: [1\nprompt: {}\n", encoding="utf-8")
    assert load_both_ways(bad) == [
        f"config is not valid YAML: while parsing a flow sequence\n"
        f'  in "{bad}", line 1, column 7\n'
        f"expected ',' or ']', but got ':'\n"
        f'  in "{bad}", line 2, column 7']


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_a_tab_after_a_keys_colon_is_the_one_divergence_between_the_loaders(
        scratch_config, monkeypatch):
    """``seed:<TAB>7`` is valid YAML: libyaml loads it, but the pure-Python
    scanner refuses the tab, so a PyYAML without libyaml refuses the config."""
    config = write_config_with_url(scratch_config, "http://127.0.0.1:9/v1")
    config.write_text(config.read_text(encoding="utf-8").replace("seed: 42", "seed:\t7"),
                      encoding="utf-8")
    assert runconfig.YAML_LOADER is yaml.CSafeLoader
    assert load_run_config(config).seed == 7
    monkeypatch.setattr(runconfig, "YAML_LOADER", yaml.SafeLoader)
    with pytest.raises(ConfigError) as exc_info:
        load_run_config(config)
    [error] = exc_info.value.errors
    assert error.startswith("config is not valid YAML: while scanning for the next token\n")
    assert "found character '\\t' that cannot start any token" in error

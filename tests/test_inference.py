from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.inference import (
    ModelEndpoint,
    Prediction,
    extract_sql,
    predict_batch,
    read_predictions,
    write_predictions,
)
from sqlbench.prompts import TRP_SENTENCE, TokenBudget, build_prompt
from sqlbench.stub import StubBehavior, StubServer, answers_from_examples


def envelopes_for(bundle, count: int):
    return [
        build_prompt(target, [], TRP_SENTENCE, TokenBudget(), bundle.schemas)
        for target in bundle.splits["dev"][:count]
    ]


def endpoint_for(server: StubServer, **overrides) -> ModelEndpoint:
    params = dict(
        base_url=server.base_url,
        model_name="stub",
        max_retries=2,
        concurrency_limit=4,
        backoff_base_s=0.0,
        timeout_s=10.0,
    )
    params.update(overrides)
    return ModelEndpoint(**params)


def test_extract_sql_code_fence():
    assert extract_sql("```sql\nSELECT a FROM t;\n```") == "SELECT a FROM t"


def test_extract_sql_identity_on_clean_input():
    assert extract_sql("SELECT a FROM t") == "SELECT a FROM t"


def test_extract_sql_strips_chatter_and_truncates():
    raw = "Sure! Here is the query: SELECT a FROM t; hope this helps"
    assert extract_sql(raw) == "SELECT a FROM t"


def test_extract_sql_no_keyword_returns_trimmed_text():
    assert extract_sql("  I refuse to answer.  ") == "I refuse to answer."


def test_extract_sql_collapses_newlines():
    assert extract_sql("SELECT a,\n       b\nFROM t") == "SELECT a,        b FROM t"


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=120))
def test_extract_sql_idempotent(raw):
    once = extract_sql(raw)
    assert extract_sql(once) == once


def test_predict_batch_empty_list():
    endpoint = ModelEndpoint(base_url="http://127.0.0.1:1", model_name="x")
    assert predict_batch([], endpoint) == []


def test_predict_batch_gold_echo(bundle):
    answers = answers_from_examples(bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers)) as server:
        envelopes = envelopes_for(bundle, 6)
        predictions = predict_batch(envelopes, endpoint_for(server))
    assert [p.example_index for p in predictions] == [e.target_index for e in envelopes]
    for prediction, example in zip(predictions, bundle.splits["dev"][:6]):
        assert prediction.error is None
        assert prediction.extracted_sql == example.gold_sql
        assert prediction.attempt_count == 1
        assert prediction.latency_ms > 0


def test_predict_batch_constant_stub(bundle):
    with StubServer(StubBehavior(fallback_sql="SELECT 1")) as server:
        predictions = predict_batch(envelopes_for(bundle, 3), endpoint_for(server))
    assert all(p.extracted_sql == "SELECT 1" for p in predictions)


def test_predict_batch_permanent_failure_attempts(bundle):
    with StubServer(StubBehavior(always_status=500)) as server:
        predictions = predict_batch(
            envelopes_for(bundle, 2), endpoint_for(server, max_retries=2)
        )
    for prediction in predictions:
        assert prediction.error is not None
        assert prediction.attempt_count == 3  # initial try + 2 retries
        assert "500" in prediction.error


def test_predict_batch_4xx_is_permanent_no_retry(bundle):
    with StubServer(StubBehavior(always_status=401)) as server:
        predictions = predict_batch(
            envelopes_for(bundle, 1), endpoint_for(server, max_retries=5)
        )
    assert predictions[0].error is not None
    assert predictions[0].attempt_count == 1


def test_predict_batch_transient_then_recovers(bundle):
    answers = answers_from_examples(bundle.splits["dev"])
    with StubServer(StubBehavior(answers=answers, fail_first=2)) as server:
        predictions = predict_batch(
            envelopes_for(bundle, 3),
            endpoint_for(server, max_retries=3, concurrency_limit=1),
        )
    assert all(p.error is None for p in predictions)
    assert sum(p.attempt_count for p in predictions) >= 5  # 2 failures retried


def test_predict_batch_respects_concurrency_limit(bundle):
    with StubServer(StubBehavior(fallback_sql="SELECT 1", delay_s=0.05)) as server:
        predict_batch(envelopes_for(bundle, 8), endpoint_for(server, concurrency_limit=2))
        assert server.max_in_flight <= 2


def test_predict_batch_unreachable_endpoint_records_error(bundle):
    endpoint = ModelEndpoint(
        base_url="http://127.0.0.1:9", model_name="x",
        max_retries=1, backoff_base_s=0.0, timeout_s=0.5,
    )
    predictions = predict_batch(envelopes_for(bundle, 1), endpoint)
    assert predictions[0].error is not None
    assert predictions[0].attempt_count == 2


def test_prediction_file_roundtrip_and_dedup(tmp_path):
    path = tmp_path / "preds.jsonl"
    first = Prediction(3, "raw", "SELECT 1", 5.0, 1)
    dup = Prediction(3, "other", "SELECT 2", 6.0, 1)
    second = Prediction(1, "raw", "SELECT 3", 7.0, 2, error=None)
    with open(path, "w", encoding="utf-8") as fp:
        for p in (first, dup, second):
            fp.write(p.to_json() + "\n")
    loaded = read_predictions(path)
    assert set(loaded) == {1, 3}
    assert loaded[3].extracted_sql == "SELECT 1"  # first record wins
    out = tmp_path / "sorted.jsonl"
    write_predictions(out, loaded)
    lines = out.read_text().splitlines()
    assert [Prediction.from_json(l).example_index for l in lines] == [1, 3]


def test_later_record_replaces_an_errored_one(tmp_path):
    """Across the files read, in order: an errored record gives way to a later
    record for the same index; a record without an error is kept."""
    final, log = tmp_path / "final.jsonl", tmp_path / "final.jsonl.partial"
    final.write_text(
        Prediction(0, "", "", 1.0, 3, error="HTTP 500").to_json() + "\n"
        + Prediction(1, "raw", "SELECT 1", 1.0, 1).to_json() + "\n", encoding="utf-8")
    log.write_text(
        Prediction(0, "", "", 1.0, 3, error="HTTP 503").to_json() + "\n"
        + Prediction(0, "raw", "SELECT 2", 1.0, 1).to_json() + "\n"
        + Prediction(1, "raw", "SELECT 3", 1.0, 1).to_json() + "\n"
        + Prediction(0, "raw", "SELECT 4", 1.0, 1).to_json() + "\n", encoding="utf-8")
    assert read_predictions(final)[0].error == "HTTP 500"
    loaded = read_predictions(final, log)
    assert loaded[0].extracted_sql == "SELECT 2" and loaded[0].error is None
    assert loaded[1].extracted_sql == "SELECT 1"
    assert read_predictions() == {}


def test_deterministic_prediction_files(bundle, tmp_path):
    """Temperature-0 runs against the deterministic stub produce identical files."""
    answers = answers_from_examples(bundle.splits["dev"])

    def one_run(name):
        with StubServer(StubBehavior(answers=answers)) as server:
            predictions = predict_batch(envelopes_for(bundle, 5), endpoint_for(server))
        for p in predictions:
            p.latency_ms = 0.0  # timing is the only nondeterministic field
        path = tmp_path / name
        write_predictions(path, {p.example_index: p for p in predictions})
        return path.read_bytes()

    assert one_run("a.jsonl") == one_run("b.jsonl")


def test_endpoint_validation():
    with pytest.raises(ValueError):
        ModelEndpoint(base_url="http://x", model_name="m", temperature=-1)
    with pytest.raises(ValueError):
        ModelEndpoint(base_url="http://x", model_name="m", concurrency_limit=0)


def test_empty_completion_is_an_error(bundle):
    with StubServer(StubBehavior(fallback_sql="")) as server:
        predictions = predict_batch(envelopes_for(bundle, 1), endpoint_for(server))
    assert predictions[0].error == "empty completion"
    assert predictions[0].extracted_sql == ""


def test_read_predictions_tolerates_truncated_line(tmp_path, caplog):
    path = tmp_path / "preds.jsonl"
    good = Prediction(0, "raw", "SELECT 1", 1.0, 1)
    path.write_text(good.to_json() + "\n" + '{"example_index": 1, "raw_te', encoding="utf-8")
    with caplog.at_level("WARNING"):
        loaded = read_predictions(path)
    assert set(loaded) == {0}
    assert any("undecodable" in rec.message for rec in caplog.records)

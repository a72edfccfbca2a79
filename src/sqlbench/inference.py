"""Model-service client: batched chat-completions requests and SQL extraction."""

from __future__ import annotations

import json
import logging
import re
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import requests

from .prompts import PromptEnvelope

logger = logging.getLogger(__name__)

_FENCE_RE = re.compile(r"^```[^\n]*$", re.MULTILINE)
_SQL_START_RE = re.compile(r"\b(select|with|insert)\b", re.IGNORECASE)


@dataclass(frozen=True)
class ModelEndpoint:
    base_url: str
    model_name: str
    api_key: str | None = None
    temperature: float = 0.0
    max_response_tokens: int = 512
    timeout_s: float = 60.0
    max_retries: int = 2
    concurrency_limit: int = 4
    backoff_base_s: float = 0.5

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be positive")

    @property
    def chat_url(self) -> str:
        return self.base_url.rstrip("/") + "/chat/completions"


@dataclass
class Prediction:
    example_index: int
    raw_text: str
    extracted_sql: str
    latency_ms: float
    attempt_count: int
    error: str | None = None

    def to_json(self) -> str:
        payload = {
            "example_index": self.example_index,
            "raw_text": self.raw_text,
            "extracted_sql": self.extracted_sql,
            "latency_ms": self.latency_ms,
            "attempt_count": self.attempt_count,
        }
        if self.error is not None:
            payload["error"] = self.error
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "Prediction":
        raw = json.loads(line)
        return cls(
            example_index=raw["example_index"],
            raw_text=raw.get("raw_text", ""),
            extracted_sql=raw.get("extracted_sql", ""),
            latency_ms=raw.get("latency_ms", 0.0),
            attempt_count=raw.get("attempt_count", 1),
            error=raw.get("error"),
        )


def extract_sql(raw: str) -> str:
    """Normalize a raw generation down to one SQL statement.

    Drops code-fence markers and any chatter before the first SQL-initial
    keyword, truncates at the first semicolon, and collapses newlines. When
    no SQL keyword is found the trimmed text is returned unchanged so that
    scoring fails it honestly.
    """
    text = _FENCE_RE.sub("", raw)
    match = _SQL_START_RE.search(text)
    if match:
        text = text[match.start() :]
        semi = text.find(";")
        if semi >= 0:
            text = text[:semi]
    return " ".join(text.replace("\r", "\n").split("\n")).strip()


@dataclass
class _RequestOutcome:
    content: str | None
    attempts: int
    error: str | None


def _classify_status(status: int) -> str:
    if status == 429 or status >= 500:
        return "transient"
    return "permanent"


def _request_once(
    session: requests.Session, endpoint: ModelEndpoint, text: str
) -> tuple[str | None, str | None, str]:
    """Returns (content, error, classification)."""
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    body = {
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": text}],
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_response_tokens,
    }
    try:
        response = session.post(
            endpoint.chat_url, json=body, headers=headers, timeout=endpoint.timeout_s
        )
    except requests.RequestException as exc:
        return None, f"request failed: {exc}", "transient"
    if response.status_code != 200:
        return (
            None,
            f"status {response.status_code}: {response.text[:200]}",
            _classify_status(response.status_code),
        )
    try:
        content = response.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError) as exc:
        return None, f"malformed response: {exc}", "permanent"
    return content, None, "ok"


def _predict_one(
    session: requests.Session,
    endpoint: ModelEndpoint,
    envelope: PromptEnvelope,
    sleep: Callable[[float], None],
) -> Prediction:
    attempts = 0
    start = time.perf_counter()
    error = None
    content = None
    while attempts <= endpoint.max_retries:
        attempts += 1
        content, error, classification = _request_once(session, endpoint, envelope.text)
        if content is not None:
            break
        if classification == "permanent" or attempts > endpoint.max_retries:
            break
        delay = endpoint.backoff_base_s * (2 ** (attempts - 1))
        logger.debug("retrying example %d in %.2fs: %s", envelope.target_index, delay, error)
        sleep(delay)
    latency_ms = (time.perf_counter() - start) * 1000.0
    extracted = extract_sql(content) if content is not None else ""
    if content is None or not extracted:
        return Prediction(
            example_index=envelope.target_index,
            raw_text=content or "",
            extracted_sql="",
            latency_ms=latency_ms,
            attempt_count=attempts,
            error=error or ("empty completion" if content is not None else "no content"),
        )
    return Prediction(
        example_index=envelope.target_index,
        raw_text=content,
        extracted_sql=extracted,
        latency_ms=latency_ms,
        attempt_count=attempts,
    )


def predict_batch(
    envelopes: list[PromptEnvelope],
    endpoint: ModelEndpoint,
    on_result: Callable[[Prediction], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    session: requests.Session | None = None,
) -> list[Prediction]:
    """One Prediction per envelope, order-preserving.

    Requests run with at most ``concurrency_limit`` in flight; all failures
    are per-example records, never batch aborts. ``on_result`` is invoked
    from the calling thread as each prediction completes (single-writer sink).
    """
    if not envelopes:
        return []
    own_session = session is None
    session = session or requests.Session()
    results: dict[int, Prediction] = {}
    try:
        with ThreadPoolExecutor(max_workers=endpoint.concurrency_limit) as pool:
            futures = {
                pool.submit(_predict_one, session, endpoint, env, sleep): pos
                for pos, env in enumerate(envelopes)
            }
            for future in as_completed(futures):
                pos = futures[future]
                prediction = future.result()
                results[pos] = prediction
                if on_result is not None:
                    on_result(prediction)
    finally:
        if own_session:
            session.close()
    return [results[pos] for pos in range(len(envelopes))]


def append_prediction(path: str | Path, prediction: Prediction) -> None:
    with open(path, "a", encoding="utf-8") as fp:
        fp.write(prediction.to_json())
        fp.write("\n")
        fp.flush()


def read_predictions(*paths: str | Path) -> dict[int, Prediction]:
    """Load prediction files, read in order as one stream of records, into
    one record per example index.

    On duplicates the first record wins, unless it carries an error: then a
    later record for the same index replaces it, so a retried example ends
    with its retry. Undecodable lines are skipped with a warning: an
    interrupted writer can leave a truncated final line, and the affected
    example is simply re-predicted on resume.
    """
    out: dict[int, Prediction] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    prediction = Prediction.from_json(line)
                except (json.JSONDecodeError, KeyError):
                    logger.warning("%s:%d: skipping undecodable prediction line", path, lineno)
                    continue
                earlier = out.get(prediction.example_index)
                if earlier is None or earlier.error is not None:
                    out[prediction.example_index] = prediction
    return out


def write_predictions(path: str | Path, predictions: dict[int, Prediction]) -> None:
    """Write one record per example, ordered by example index."""
    with open(path, "w", encoding="utf-8") as fp:
        for index in sorted(predictions):
            fp.write(predictions[index].to_json())
            fp.write("\n")

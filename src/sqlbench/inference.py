"""Model-service client: batched chat-completions calls and SQL extraction."""

from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import queue
import re
import socket
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from .artifacts import append_line, writing
from .prompts import PromptEnvelope

logger = logging.getLogger(__name__)

_FENCE_RE = re.compile(r"^```[^\n]*$", re.MULTILINE)
_SQL_START_RE = re.compile(r"\b(select|with|insert)\b", re.IGNORECASE)


@dataclass(frozen=True)
class ModelEndpoint:
    """Where and how to request predictions. The API key is never a field:
    it is read from the environment variable named by ``api_key_env`` when a
    batch starts."""

    base_url: str = "http://127.0.0.1:8181/v1"
    model_name: str = "stub"
    temperature: float = 0.0
    max_response_tokens: int = 512
    timeout_s: float = 60.0
    max_retries: int = 2
    concurrency_limit: int = 4
    backoff_base_s: float = 0.5
    api_key_env: str = "SQLBENCH_API_KEY"
    record_latency: bool = True

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.concurrency_limit < 1:
            raise ValueError("concurrency_limit must be positive")
        if self.max_response_tokens < 1:
            raise ValueError("max_response_tokens must be positive")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")

    @property
    def chat_url(self) -> str:
        return self.base_url.rstrip("/") + "/chat/completions"


@dataclass
class Prediction:
    example_index: int
    raw_text: str = ""
    extracted_sql: str = ""
    latency_ms: float = 0.0
    attempt_count: int = 1
    error: str | None = None

    def to_json(self) -> str:
        """The fields in order; a prediction without an error has no error key."""
        payload = dict(vars(self))
        if self.error is None:
            del payload["error"]
        return json.dumps(payload, ensure_ascii=False)

    @classmethod
    def from_json(cls, line: str) -> "Prediction":
        """The record a line holds; TypeError if it is JSON but not a record
        or a field has the wrong type."""
        p = cls(**json.loads(line))
        valid = {
            "example_index": type(p.example_index) is int,
            "raw_text": isinstance(p.raw_text, str),
            "extracted_sql": isinstance(p.extracted_sql, str),
            "latency_ms": type(p.latency_ms) in (int, float),
            "attempt_count": type(p.attempt_count) is int,
            "error": p.error is None or isinstance(p.error, str),
        }
        wrong = [name for name, ok in valid.items() if not ok]
        if wrong:
            raise TypeError(f"wrong type of {', '.join(wrong)}")
        return p


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


def _classify_status(status: int) -> str:
    if status == 429 or status >= 500:
        return "transient"
    return "permanent"


class _Client:
    """A batch's way to the chat URL, resolved once: the proxy from
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY``, the TLS context from the
    system CA store, and the request headers. Each worker thread keeps one
    connection alive for every call it makes, opened on first use.

    Plain HTTP goes to a proxy in absolute form; HTTPS goes through a
    ``CONNECT`` tunnel. Credentials in the proxy URL become a
    ``Proxy-Authorization: Basic`` header.
    """

    def __init__(self, endpoint: ModelEndpoint) -> None:
        url = urlsplit(endpoint.chat_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint URL must be http(s)://host/...: {endpoint.chat_url!r}")
        self.timeout_s = endpoint.timeout_s
        self.headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(endpoint.api_key_env)
        if api_key:
            self.headers["Authorization"] = f"Bearer {api_key}"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._tunnel: tuple[str, int] | None = None
        self._proxy_headers: dict[str, str] = {}
        port = url.port or (80 if self._tls is None else 443)
        self.address = (url.hostname, port)
        self.target = url.path + (f"?{url.query}" if url.query else "")
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(url.hostname):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"{url.scheme} proxy must be http://host[:port]: {proxy!r}")
            if via.username is not None:
                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                self._proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii"))
            if self._tls is not None:
                self._tunnel = self.address
            else:
                self.target = endpoint.chat_url
                self.headers.update(self._proxy_headers)
            self.address = (via.hostname, via.port or 80)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[http.client.HTTPConnection] = []

    def new_connection(self) -> http.client.HTTPConnection:
        """An unopened connection to the endpoint, or to its proxy."""
        host, port = self.address
        if self._tls is None:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout_s)
        else:
            conn = http.client.HTTPSConnection(host, port, timeout=self.timeout_s,
                                               context=self._tls)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel, headers=self._proxy_headers)
        return conn

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self.new_connection()
            with self._lock:
                self._opened.append(conn)
        return conn

    def post(self, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST on the calling thread's connection.

        A kept-alive connection that the server closed while it sat idle fails
        before a status line arrives; it is reopened and the request sent
        once more. Any other failure closes the connection and raises.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                response = self._send(conn, body)
            except (ConnectionError, ssl.SSLEOFError):
                if not reused:
                    raise
                conn.close()
                response = self._send(conn, body)
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise

    def _send(self, conn: http.client.HTTPConnection, body: bytes) -> http.client.HTTPResponse:
        if conn.sock is None:
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.request("POST", self.target, body, self.headers)
        return conn.getresponse()

    def close(self) -> None:
        with self._lock:
            for conn in self._opened:
                conn.close()


def _request_once(client: _Client, body: bytes) -> tuple[str | None, str | None, str]:
    """Returns (content, error, classification)."""
    try:
        status, data = client.post(body)
    except (OSError, http.client.HTTPException) as exc:
        return None, f"request failed: {exc}", "transient"
    if status != 200:
        text = data.decode("utf-8", errors="replace")
        return None, f"status {status}: {text[:200]}", _classify_status(status)
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, f"malformed response: {exc}", "permanent"
    return content, None, "ok"


def _predict_one(
    client: _Client,
    endpoint: ModelEndpoint,
    envelope: PromptEnvelope,
    sleep: Callable[[float], None],
) -> Prediction:
    body = json.dumps({
        "model": endpoint.model_name,
        "messages": [{"role": "user", "content": envelope.text}],
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_response_tokens,
    }).encode("utf-8")
    attempts = 0
    start = time.perf_counter()
    error = None
    content = None
    while attempts <= endpoint.max_retries:
        attempts += 1
        content, error, classification = _request_once(client, body)
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
) -> list[Prediction]:
    """One Prediction per envelope, order-preserving.

    Requests run with at most ``concurrency_limit`` in flight, each worker
    thread over one kept-alive connection that is closed when the batch
    returns or raises; all request failures are per-example records, never
    batch aborts. ``on_result`` is invoked from the calling thread as each
    prediction completes (single-writer sink). An envelope is submitted only
    while fewer than ``concurrency_limit`` predictions are submitted and not
    yet taken by the sink, so if the sink raises, at most that many requests
    have been sent; those under way finish, and the exception propagates.
    """
    if not envelopes:
        return []
    client = _Client(endpoint)
    results: dict[int, Prediction] = {}
    queued = iter(enumerate(envelopes))
    finished: queue.SimpleQueue = queue.SimpleQueue()
    try:
        with ThreadPoolExecutor(max_workers=endpoint.concurrency_limit) as pool:

            def submit(count: int) -> None:
                for pos, env in islice(queued, count):
                    future = pool.submit(_predict_one, client, endpoint, env, sleep)
                    future.add_done_callback(lambda done, pos=pos: finished.put((pos, done)))

            submit(endpoint.concurrency_limit)
            for _ in envelopes:
                pos, future = finished.get()
                results[pos] = prediction = future.result()
                if on_result is not None:
                    on_result(prediction)
                submit(1)
    finally:
        client.close()
    return [results[pos] for pos in range(len(envelopes))]


def append_prediction(path: str | Path, prediction: Prediction) -> None:
    append_line(path, prediction.to_json())


def read_predictions(*paths: str | Path) -> dict[int, Prediction]:
    """Load prediction files, read in order as one stream of records, into
    one record per example index.

    On duplicates the first record wins, unless it carries an error: then a
    later record for the same index replaces it, so a retried example ends
    with its retry. Lines that are not a record, undecodable or JSON of
    another shape, are skipped with a warning: an interrupted writer can
    leave a truncated final line, and the affected example is simply
    re-predicted on resume.
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
                except (ValueError, TypeError):
                    logger.warning("%s:%d: skipping undecodable prediction line", path, lineno)
                    continue
                earlier = out.get(prediction.example_index)
                if earlier is None or earlier.error is not None:
                    out[prediction.example_index] = prediction
    return out


def write_predictions(path: str | Path, predictions: dict[int, Prediction]) -> None:
    """Write one record per example, ordered by example index."""
    with writing(path) as fp:
        for index in sorted(predictions):
            fp.write(predictions[index].to_json())
            fp.write("\n")

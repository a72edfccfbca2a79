"""Model-service client: batched chat-completions calls and SQL extraction."""

from __future__ import annotations

import base64
import http.client
import json
import logging
import os
import re
import socket
import ssl
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from .artifacts import is_text, writing
from .prompts import PromptEnvelope

logger = logging.getLogger(__name__)

_FENCE_RE = re.compile(r"^[^\S\n]*```[^\n]*$", re.MULTILINE)
_BLOCK_RE = re.compile(r"^[^\S\n]*```[^\n]*\n(.*?)^[^\S\n]*```", re.MULTILINE | re.DOTALL)
# a statement's first keyword; WITH only as a CTE head, WITH [RECURSIVE] name [(cols)] AS (
_SQL_KEYWORD = (r"(select\b|insert\b|with\s+(?:recursive\s+)?"
                r"(?:\w+|\"[^\"]*\"|`[^`]*`|\[[^\]]*\])\s*(?:\([^()]*\)\s*)?as\s*\()")
_LINE_START_RE = re.compile(r"^[^\S\n]*" + _SQL_KEYWORD, re.IGNORECASE | re.MULTILINE)
_SQL_START_RE = re.compile(r"\b" + _SQL_KEYWORD, re.IGNORECASE)
# text up to the first semicolon outside a quoted string; an unclosed one runs to the end
_STATEMENT_RE = re.compile(r"(?:[^;'\"]+|'[^']*'?|\"[^\"]*\"?)*")
_BEARER_RE = re.compile(r"[!-~]+")  # visible ASCII, the characters of a Bearer token
# seconds in a day, the longest wait a config may ask for: time.sleep, a socket
# timeout and a query deadline overflow long before a float or an int does
MAX_WAIT_S = 86_400


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
        if not 0 < self.timeout_s <= MAX_WAIT_S:
            raise ValueError(f"timeout_s must be positive and at most {MAX_WAIT_S} (one day)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0 <= self.backoff_base_s <= MAX_WAIT_S:
            raise ValueError(f"backoff_base_s must be non-negative and at most {MAX_WAIT_S}"
                             " (one day)")

    def api_key(self) -> str | None:
        """The key in the environment variable ``api_key_env``, or None if it
        is unset or empty. ValueError, naming the variable and never the key,
        if it holds anything but visible ASCII, as a Bearer token does."""
        key = os.environ.get(self.api_key_env)
        if key and not _BEARER_RE.fullmatch(key):
            raise ValueError(f"{self.api_key_env} holds an API key that is not all visible"
                             " ASCII (U+0021-U+007E)")
        return key or None

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
        """The record a line holds; TypeError if it is JSON but not a record,
        a field has the wrong type or a text field does not encode to UTF-8."""
        p = cls(**json.loads(line))
        valid = {
            "example_index": type(p.example_index) is int,
            "raw_text": is_text(p.raw_text),
            "extracted_sql": is_text(p.extracted_sql),
            "latency_ms": type(p.latency_ms) in (int, float),
            "attempt_count": type(p.attempt_count) is int,
            "error": p.error is None or is_text(p.error),
        }
        wrong = [name for name, ok in valid.items() if not ok]
        if wrong:
            raise TypeError(f"wrong type of {', '.join(wrong)}")
        return p


def extract_sql(raw: str) -> str:
    """Normalize a raw generation down to one SQL statement.

    Reads only the first closed code-fenced block if there is one, and
    drops stray fence lines. The statement starts at the first SQL-initial
    keyword that begins a line, or else at the first one anywhere (``WITH``
    only when a common-table-expression head follows it), and ends
    at the first semicolon outside a quoted string; newlines collapse to
    spaces. When no SQL keyword is found the trimmed text is returned
    unchanged so that scoring fails it honestly.
    """
    block = _BLOCK_RE.search(raw)
    text = _FENCE_RE.sub("", block[1] if block else raw)
    match = _LINE_START_RE.search(text) or _SQL_START_RE.search(text)
    if match:
        text = _STATEMENT_RE.match(text, match.start(1))[0]
    return " ".join(text.replace("\r", "\n").split("\n")).strip()


class _Client:
    """A batch's way to the chat URL, resolved once: the proxy from
    ``HTTP_PROXY``/``HTTPS_PROXY``/``NO_PROXY``, the TLS context from the
    system CA store, and the request headers. It holds no connection: each
    request slot opens and closes its own, made by ``new_connection``.

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
        api_key = endpoint.api_key()
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

    def post(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        """Status and body of one POST on ``conn``, connected if it is not.

        A kept-alive connection that the server closed while it sat idle fails
        before a status line arrives; it is reopened and the request sent
        once more. Any other failure closes the connection and raises.
        """
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


def _request_once(client: _Client, conn: http.client.HTTPConnection,
                  body: bytes) -> tuple[str | None, str | None, bool]:
    """(content, error, whether a retry can help): the completion's text and
    no error, or no text and the error."""
    try:
        status, data = client.post(conn, body)
    except (OSError, http.client.HTTPException) as exc:
        return None, f"request failed: {exc}", True
    if status != 200:
        text = data.decode("utf-8", errors="replace")
        return None, f"status {status}: {text[:200]}", status == 429 or status >= 500
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
        if not isinstance(content, str):
            raise TypeError(f"content is not a string: {json.dumps(content)[:200]}")
        if not is_text(content):
            raise ValueError(f"content is not UTF-8 text: {json.dumps(content)[:200]}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, f"malformed response: {exc}", False
    return content, None, False


def _predict_one(
    client: _Client,
    conn: http.client.HTTPConnection,
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
    while True:
        attempts += 1
        content, error, retryable = _request_once(client, conn, body)
        if not retryable or attempts > endpoint.max_retries:
            break
        # a capped exponent keeps the float finite for any max_retries
        delay = min(endpoint.backoff_base_s * 2.0 ** min(attempts - 1, 64), MAX_WAIT_S)
        logger.debug("retrying example %d in %.2fs: %s", envelope.target_index, delay, error)
        sleep(delay)
    latency_ms = (time.perf_counter() - start) * 1000.0
    extracted = "" if content is None else extract_sql(content)
    if error is None and not extracted:
        error = "empty completion"
    return Prediction(envelope.target_index, content or "", extracted, latency_ms, attempts, error)


def predict_batch(
    envelopes: Iterable[PromptEnvelope],
    endpoint: ModelEndpoint,
    on_result: Callable[[Prediction], None],
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Request one Prediction per envelope and pass each to ``on_result``,
    the batch's only output, as the answers arrive.

    Each of the ``concurrency_limit`` request slots runs ``run_slot``: the
    calling thread is one, each other is a thread of its own. A slot owns
    one kept-alive connection and closes it when it ends. Under one lock it
    sinks the prediction it just received and draws its next envelope, so
    prompts are planned while other requests are in flight, and neither the
    sink nor the iterable is entered by two threads at once. A request
    failure is a per-example record, never a batch abort.

    If the sink or the iterable raises on any slot, or an exception such as
    ``KeyboardInterrupt`` reaches the calling thread, no further envelope is
    drawn; the requests already sent finish, and the first such exception,
    an interrupt or exit before any error, is raised on the calling thread.
    """
    client = _Client(endpoint)
    queued = iter(envelopes)
    lock = threading.Lock()
    failures: list[BaseException] = []  # appended under the lock: once set, no slot draws

    def run_slot() -> None:
        conn, prediction = client.new_connection(), None
        try:
            while True:
                with lock:
                    try:
                        if failures:
                            return
                        if prediction is not None:
                            on_result(prediction)
                        envelope = next(queued, None)
                    except BaseException as exc:  # in the lock hold it arose in
                        failures.append(exc)
                        return
                if envelope is None:
                    return
                prediction = _predict_one(client, conn, endpoint, envelope, sleep)
        except BaseException as exc:  # never let it end a thread unseen
            with lock:
                failures.append(exc)
        finally:
            conn.close()

    workers: list[threading.Thread] = []
    try:
        for _ in range(endpoint.concurrency_limit - 1):
            worker = threading.Thread(target=run_slot, name="sqlbench-predict")
            worker.start()
            workers.append(worker)
        run_slot()
    except BaseException as exc:  # a slot that could not start: none draws after it
        with lock:
            failures.append(exc)
    finally:
        for worker in workers:
            worker.join()
    if failures:
        raise next((exc for exc in failures if not isinstance(exc, Exception)), failures[0])


def append_prediction(log: Callable[[str], None], prediction: Prediction) -> None:
    """Append one record to an append log opened by ``artifacts.appending``."""
    log(prediction.to_json())


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
        # each line decoded by itself: one torn inside a character is skipped
        with open(path, "rb") as fp:
            for lineno, raw in enumerate(fp, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
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

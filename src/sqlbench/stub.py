"""Deterministic in-repo stub of a chat-completions endpoint.

Serves canned SQL for prompts by looking up the last question line, over
kept-alive HTTP/1.1 connections, with optional fault injection (fixed
failure statuses, fail-first-N, per-request delay) for exercising the
client's retry and resume paths.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUESTION_RE = re.compile(r"^Q: (.*)$", re.MULTILINE)


@dataclass
class StubBehavior:
    answers: dict[str, str] = field(default_factory=dict)
    fallback_sql: str = "SELECT 1"
    delay_s: float = 0.0
    fail_first: int = 0
    always_status: int | None = None

    def lookup(self, prompt_text: str) -> str:
        questions = _QUESTION_RE.findall(prompt_text)
        if questions:
            return self.answers.get(questions[-1], self.fallback_sql)
        return self.fallback_sql


class _Handler(BaseHTTPRequestHandler):
    # keep connections alive, as real model servers do; with Nagle on, a
    # reply's headers and body go out as two small writes and wait on the
    # client's delayed ACK
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        stub = self.server.stub
        with stub.lock:
            stub.request_count += 1
            count = stub.request_count
            stub.in_flight += 1
            stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            body = json.loads(self.rfile.read(length) or b"{}")
            behavior = stub.behavior
            if behavior.delay_s:
                time.sleep(behavior.delay_s)
            status: int | None = None
            if behavior.always_status is not None:
                status = behavior.always_status
            elif count <= behavior.fail_first:
                status = 500
            if status is not None:
                self._reply(status, {"error": {"message": "injected failure"}})
                return
            prompt = ""
            messages = body.get("messages") or []
            if messages:
                prompt = messages[-1].get("content", "")
            content = behavior.lookup(prompt)
            self._reply(
                200,
                {
                    "id": "stub",
                    "object": "chat.completion",
                    "model": body.get("model", "stub"),
                    "choices": [
                        {
                            "index": 0,
                            "message": {"role": "assistant", "content": content},
                            "finish_reason": "stop",
                        }
                    ],
                },
            )
        finally:
            with stub.lock:
                stub.in_flight -= 1

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # silence request logging
        pass


class _Server(ThreadingHTTPServer):
    # a batch opens up to concurrency_limit connections at once; past the
    # listen backlog (socketserver's default is 5) a connect waits about a
    # second for its SYN to be sent again
    request_queue_size = 128


class StubServer:
    """Threaded stub endpoint; use as a context manager in tests and demos."""

    def __init__(self, behavior: StubBehavior | None = None, host: str = "127.0.0.1",
                 port: int = 0):
        self.behavior = behavior or StubBehavior()
        self.lock = threading.Lock()
        self.request_count = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self._http = _Server((host, port), _Handler)
        self._http.stub = self
        self._thread = threading.Thread(target=self._http.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}/v1"

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

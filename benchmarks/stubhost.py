"""Host the in-repo stub endpoint in its own process for the benchmark.

Serves the planted answers with a fixed per-request delay. A handler
subclass counts connections; it reports them with the stub's own request
count and in-flight peak at ``GET /_bench/stats``. Prints ``READY <port>``
once serving and stops when its standard input closes.

Usage: python3 benchmarks/stubhost.py --answers answers.json --delay 0.003 [--port N]
(with the repository's ``src`` on ``PYTHONPATH``)
"""

from __future__ import annotations

import argparse
import json
import sys

from sqlbench.stub import StubBehavior, StubServer, _Handler

STATS_PATH = "/_bench/stats"


class CountingHandler(_Handler):
    """The stub's own handler, plus a count of the connections it accepts;
    the stub itself counts requests and the in-flight peak."""

    def setup(self) -> None:
        super().setup()
        stub = self.server.stub
        with stub.lock:
            stub.connections += 1

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path != STATS_PATH:
            self._reply(404, {"error": "not found"})
            return
        stub = self.server.stub
        with stub.lock:
            stats = {"connections": stub.connections, "requests": stub.request_count,
                     "max_in_flight": stub.max_in_flight}
        self._reply(200, stats)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--answers", required=True)
    parser.add_argument("--delay", type=float, required=True)
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    with open(args.answers, encoding="utf-8") as fp:
        answers = json.load(fp)
    behavior = StubBehavior(answers=answers, fallback_sql="SELECT 1", delay_s=args.delay)
    try:
        server = StubServer(behavior, port=args.port)
    except OSError:
        server = StubServer(behavior, port=0)  # preferred port taken
    # the stub builds its HTTP server with its own handler; count with ours
    server._http.RequestHandlerClass = CountingHandler
    server.connections = 0
    server.start()
    port = server.base_url.rsplit(":", 1)[1].split("/")[0]
    print(f"READY {port}", flush=True)
    try:
        sys.stdin.read()  # until the runner closes the pipe
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())

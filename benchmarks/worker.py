"""One timed stage run: a single CLI stage in a fresh process.

Calls ``sqlbench.cli.main(argv)`` in-process for one stage, as a user's shell
would call the ``sqlbench`` command, and times the call. Every stage run gets
its own process, so no run is warmed by an earlier run of the same work.
With ``--trace 1`` the span recorder wraps every layer boundary first and the
spans are written beside the result. The result JSON holds the stage's wall
time, CPU time and exit code, the host-speed probe sampled while it ran, and
the process's peak resident set and CPU time.

Usage (from the generated data directory, with ``src`` on ``PYTHONPATH``):
python3 worker.py --workload NAME --stage ingest --output-dir runs/rep0 --result rep0-ingest.json
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

RUN_ID = "bench"


_PROBE_TOKEN = re.compile(r"\w+|'[^']*'|[(),.*=<>]")
_PROBE_TEXT = ("SELECT T1.name , count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.id ="
               " T2.sid WHERE T2.year = '2014' GROUP BY T1.id ORDER BY count(*) DESC LIMIT 3")


def host_speed_probe() -> float:
    """CPU seconds of the calling thread that a fixed, program-independent
    piece of work takes now (about 1 ms).

    The work mixes what the harness spends its time on: dict updates, regex
    tokenizing, small allocations and sorting.
    """
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(1_800):
        counts[i % 97] = counts.get(i % 97, 0) + (i * i) % 7
    for _ in range(15):
        tokens = _PROBE_TOKEN.findall(_PROBE_TEXT)
        sorted({token.lower(): len(token) for token in tokens}.items())
        " ".join(tokens).split(" ")
    return time.thread_time() - start


class HostSpeed:
    """Samples ``host_speed_probe`` while a stage runs: once before, every
    ``INTERVAL_S`` on a thread of its own during, and once after.

    This shared host's speed drifts, by up to 2x over seconds, and a long
    stage can see several speeds; the runner scales the stage's CPU time by
    the mean of these samples. The probes are CPU time, the same unit as the
    stage's CPU time. The sampling thread costs the stage about 1% of its
    time, the same for every run.
    """

    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            self.samples.append(host_speed_probe())

    def start(self) -> None:
        self.samples.append(host_speed_probe())
        self._thread.start()

    def stop(self) -> float:
        """Stop sampling; the mean probe time over the stage."""
        self._stop.set()
        self._thread.join()
        self.samples.append(host_speed_probe())
        return sum(self.samples) / len(self.samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--stage", required=True, choices=STAGES)
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from sqlbench import cli

    for _ in range(5):
        host_speed_probe()  # the first probes in a fresh process run cold
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    stage_argv = dict(WORKLOADS[args.workload].stages("run.yaml", args.output_dir, RUN_ID))
    speed = HostSpeed()
    speed.start()
    cpu = time.process_time()
    start = time.perf_counter()
    with tracer.span(f"cli.{args.stage}") if tracer is not None else nullcontext():
        code = cli.main(stage_argv[args.stage])
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    probe = speed.stop()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "stage": args.stage, "wall_s": wall, "cpu_s": cpu, "probe_s": probe, "exit": code,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "proc_cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        tracer.restore()
        spans_path = Path(args.result).with_suffix(".spans.json")
        spans_path.write_text(json.dumps([s.to_dict() for s in tracer.spans]), "utf-8")
        result["spans"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result, indent=1), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

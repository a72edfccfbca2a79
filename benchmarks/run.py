"""sqlbench benchmark: one workload, end to end, with output checks.

Run from the repository root:

    python3 benchmarks/run.py --workload zeroshot-pipeline --seed 1 --seconds 38 --trace 0

Steps, in order:

1. Generate the workload's inputs from ``tests/fixtures`` and the seed
   (``generate.py``, its own process, before any timing).
2. Start the in-repo stub endpoint in its own process (``stubhost.py``) and
   warm it with one request.
3. Repeat the workload's four CLI stages (ingest, build-corpus, predict,
   evaluate): twice, then again while a repetition as long as the last one
   would end within ``--seconds`` of the first one's start. Every stage run is a fresh
   Python process (``worker.py``), as when a user calls the ``sqlbench``
   command, and each repetition writes to a fresh output directory. With
   ``--trace 1`` repetitions alternate untraced and traced.
4. Check the outputs of every repetition, print the SHA-256 of each
   deterministic artifact, and print the metrics.

End-to-end metrics (medians over the untraced repetitions, one run of each
stage per repetition; closed loop, the CLI keeps ``concurrency_limit: 2``
requests in flight):

- ``setup_s``: wall time of the ingest stage.
- ``predict_eps``: targets / wall time of the predict stage.
- ``evaluate_eps``: examples / wall time of the evaluate stage.
- ``corpus_rps``: corpus records written / wall time of the build-corpus stage.
- ``peak_rss_mb``: peak resident set of the largest stage process.

Stage wall times are brought to a reference host before the medians, in
two steps. First, time the virtual machine's CPUs were stolen by its host is
taken out: the wall time is multiplied by ``1 - steal_share``, the share of
the machine's busy CPU time that ``/proc/stat`` counts as stolen over the
life of the stage's process (0 where ``/proc/stat`` is missing). Second, the part of the
remaining time that the stage's process spent on a CPU is multiplied by
``REFERENCE_PROBE_S / probe``, where ``probe`` is the mean CPU time of a
fixed, program-independent loop sampled in that process before, every 0.1 s
during, and after the run (``worker.HostSpeed``). On the shared 2-core
virtual machine this was built on, that loop's time moved between 0.7x and
1.4x its usual value, and the stolen share between 0 and 0.4, over spans of
seconds to minutes; raw wall times carry both straight into every metric.
The bounds in ``BENCHMARK.json`` are set for the corrected figures. The
uncorrected medians are printed beside the corrected ones, and with
``--trace 0`` also as a JSON line (``{"raw_metrics": ...}``) just before the
result line.

``error_rate`` (failed / attempted) is printed with its denominator, and the
last line carries ``attempted`` and ``failed``. Attempted operations are
endpoint requests, scored examples and corpus records. A failure is a
prediction carrying an error, a stage with a non-zero exit, an eval record
whose failure kind was not planted, or a skipped corpus record.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The exit status is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from generate import STUB_URL  # noqa: E402
from spans import layer_metrics, load_spans, stage_coverage  # noqa: E402
from workloads import STAGES, WORKLOADS, Workload  # noqa: E402

WORK_DIR = ".benchwork"
# repetitions that run even past --seconds; further ones start only if they
# should end by then, which bounds a run's length on a slow host
MIN_REPS = 2
MAX_REPS = 12
STAGE_TIMEOUT_S = 150
# about the median of worker.host_speed_probe on the 2-core x86-64 VM
# (Python 3.11) this was built on; stage times are reported as if the host
# ran at that speed
REFERENCE_PROBE_S = 0.001

E2E_UNITS = {"setup_s": "s", "predict_eps": "examples/s", "evaluate_eps": "examples/s",
             "corpus_rps": "records/s", "peak_rss_mb": "MB"}
# failure kinds each planted label is allowed to produce in an eval record
ALLOWED_FAILURE = {"echo": None, "em-miss": None, "wrong-literal": None,
                   "unparseable": "parse-error", "non-executable": "exec-error"}
PER_LAYER_UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_p99": "ms", "_share": "ratio",
                   "_per_example": "count", "_per_select": "count",
                   "_per_request": "count", ".bytes": "bytes"}


class BenchError(Exception):
    """The benchmark could not run: a missing input or a process that failed."""


def _python_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _preferred_port(workload: str, seed: int) -> int:
    # a port fixed by (workload, seed) keeps the config fingerprint, and so the
    # report bytes, identical across runs of the same seed
    return 20000 + zlib.crc32(f"{workload}:{seed}".encode()) % 20000


class StubProcess:
    """The stub endpoint in its own process (``stubhost.py``); it prints
    ``READY <port>`` once serving and stops when its standard input closes."""

    def __init__(self, root: Path, answers: Path, delay_s: float, port: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stubhost.py"), "--answers", str(answers),
             "--delay", str(delay_s), "--port", str(port)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_python_env(root), text=True)
        ready = self.proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "READY":
            self.stop()
            raise BenchError("stub endpoint did not start")
        self.port = int(ready[1])
        self.base_url = f"http://127.0.0.1:{self.port}/v1"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/_bench/stats",
                                    timeout=10) as r:
            return json.loads(r.read())

    def warm(self) -> None:
        body = json.dumps({"model": "stub", "messages": [{"role": "user", "content": "Q: warm"}]})
        request = urllib.request.Request(f"{self.base_url}/chat/completions", data=body.encode(),
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as r:
            r.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def host_cpu_ticks() -> tuple[int, int]:
    """(stolen, busy) CPU ticks of the whole virtual machine since boot, from
    the first line of ``/proc/stat``; (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat", encoding="ascii") as fp:
            # user nice system idle iowait irq softirq steal (guest is in user)
            ticks = [int(x) for x in fp.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks) - ticks[3] - ticks[4]


def _run_stage(root: Path, data: Path, workload: Workload, rep: int, stage: str,
               traced: bool) -> dict:
    """One stage run in its own fresh worker process."""
    name = f"rep{rep}-{stage}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--stage", stage, "--output-dir", f"runs/rep{rep}", "--result", f"{name}.json",
           "--trace", str(int(traced))]
    stolen, busy = host_cpu_ticks()
    with open(data / f"{name}.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, cwd=data, env=_python_env(root), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=STAGE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} exceeded {STAGE_TIMEOUT_S}s") from exc
    stolen_after, busy_after = host_cpu_ticks()
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}; see {log.name}")
    sample = json.loads((data / f"{name}.json").read_text("utf-8"))
    # over the worker's whole life, start-up included: a short stage alone
    # spans too few ticks to give a share
    sample["steal_share"] = (
        (stolen_after - stolen) / (busy_after - busy) if busy_after > busy else 0.0)
    return sample


def _run_rep(root: Path, data: Path, workload: Workload, rep: int, traced: bool) -> dict:
    """The workload's stages in pipeline order, each in a fresh process."""
    samples = []
    for stage in STAGES:
        samples.append(_run_stage(root, data, workload, rep, stage, traced))
        if samples[-1]["exit"] != 0:
            break
    out = {"rep": rep, "traced": traced, "stages": samples,
           "completed": len(samples) == len(STAGES) and samples[-1]["exit"] == 0,
           "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
           "cpu_s": sum(s["proc_cpu_s"] for s in samples),
           "run_dir": data / f"runs/rep{rep}/bench"}
    if traced:
        spans = load_spans([data / s["spans"] for s in samples])
        out["layers"] = layer_metrics(spans)
        out["coverage"] = stage_coverage(spans)
        out["spans"] = [s.to_dict() for s in spans]
    return out


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def _artifacts(run_dir: Path) -> list[Path]:
    """The deterministic artifacts of one repetition, in a fixed order."""
    found = [run_dir / "manifest.json"]
    for sub in ("predictions", "eval", "reports", "corpus"):
        found.extend(sorted((run_dir / sub).glob("*")) if (run_dir / sub).is_dir() else [])
    return [p for p in found if p.is_file()]


def _digests(run_dir: Path) -> dict[str, str]:
    return {str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in _artifacts(run_dir)}


def check_outputs(workload: Workload, data: Path, run_dir: Path) -> tuple[list[str], dict]:
    """Check one repetition's outputs; returns (violations, counts)."""
    problems: list[str] = []
    targets = json.loads((data / f"{workload.target_split}.json").read_text("utf-8"))
    labels = json.loads((data / "labels.json").read_text("utf-8"))
    answers = json.loads((data / "answers.json").read_text("utf-8"))
    counts = {"requests": 0, "prediction_errors": 0, "scored": 0, "unplanted_failures": 0,
              "corpus_records": 0, "corpus_skipped": 0}

    pred_path = run_dir / "predictions" / f"{workload.target_split}_shots{workload.shots}.jsonl"
    preds = _read_jsonl(pred_path) if pred_path.is_file() else []
    counts["requests"] = len(preds)
    if [p["example_index"] for p in preds] != list(range(len(targets))):
        problems.append(f"predictions: expected one per target ({len(targets)}), got {len(preds)}")
    for pred in preds:
        counts["prediction_errors"] += int("error" in pred)
        target = targets[pred["example_index"]] if pred["example_index"] < len(targets) else None
        if target is not None and pred["extracted_sql"] != answers[target["question"]].strip():
            problems.append(f"prediction {pred['example_index']}: not the answer planted for"
                            " its own question (the prompt must end with the target question)")

    rec_path = run_dir / "eval" / f"{workload.target_split}_records.jsonl"
    records = _read_jsonl(rec_path) if rec_path.is_file() else []
    counts["scored"] = len(records)
    if [r["example_index"] for r in records] != list(range(len(targets))):
        problems.append(f"eval: expected one record per example ({len(targets)}),"
                        f" got {len(records)}")
    em_on, ex_on = workload.metrics["em"], workload.metrics["ex"]
    for rec, label in zip(records, labels):
        i, failure = rec["example_index"], rec["failure"]
        if failure != ALLOWED_FAILURE[label]:
            counts["unplanted_failures"] += 1
            problems.append(f"eval {i}: {label} answer got failure {failure!r}")
        if not em_on and rec["em"] is not None or not ex_on and rec["ex"] is not None:
            problems.append(f"eval {i}: a metric switched off was scored")
        if label == "echo" and (em_on and rec["em"] is not True or ex_on and rec["ex"] is not True):
            problems.append(f"eval {i}: gold echo scored em={rec['em']} ex={rec['ex']}")
        if label in ("unparseable", "em-miss") and em_on and rec["em"] is not False:
            problems.append(f"eval {i}: {label} answer scored em={rec['em']}")
        if label == "wrong-literal" and ex_on and rec["ex"] is not False:
            problems.append(f"eval {i}: wrong literal scored ex={rec['ex']}")

    split = json.loads((data / f"{workload.corpus_split}.json").read_text("utf-8"))
    corpora = sorted((run_dir / "corpus").glob("*.jsonl")) if (run_dir / "corpus").is_dir() else []
    if not corpora:
        problems.append("corpus: no corpus written")
    for path in corpora:
        summary = json.loads(path.with_suffix(".summary.json").read_text("utf-8"))
        rows = _read_jsonl(path)
        counts["corpus_records"] += len(rows)
        counts["corpus_skipped"] += len(summary["skipped"])
        if len(rows) + len(summary["skipped"]) != len(split):
            problems.append(f"{path.name}: records plus skipped != split size {len(split)}")
        if summary["records"] != len(rows):
            problems.append(f"{path.name}: summary counts {summary['records']} records")
        planned = _planned_k(path.name)
        for row in rows:
            meta = row["meta"]
            if meta["example_index"] in meta["exemplar_ids"]:
                problems.append(f"{path.name}: example {meta['example_index']} is its own exemplar")
            if meta["shots"] != len(meta["exemplar_ids"]) or meta["shots"] > planned:
                problems.append(f"{path.name}: example {meta['example_index']} has"
                                f" {meta['shots']} shots, planned at most {planned}")
    return problems, counts


def _planned_k(corpus_name: str) -> int:
    stem = Path(corpus_name).stem
    if stem.endswith("_random_shot"):
        return 5  # the largest of the CLI's default --choices 0,1,3,5
    return int(stem.rsplit("_k", 1)[1])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _scaled(sample: dict) -> float:
    """A stage run's wall time without the stolen share, and with the part
    its process spent on a CPU brought to the reference host speed; the rest
    (waiting on the stub or on disk) is kept. ``cpu_s`` counts every thread
    of the process and no stolen time, so a stage whose threads together use
    at least its remaining wall time (evaluate's scoring pool) is scaled as
    wholly CPU-bound."""
    wall = sample["wall_s"] * (1.0 - sample["steal_share"])
    busy = min(sample["cpu_s"], wall)
    return wall - busy + busy * REFERENCE_PROBE_S / sample["probe_s"]


def _walls(reps: list[dict], stage: str, scaled: bool = True) -> list[float]:
    """Wall times of one stage, one per repetition, scaled or as measured."""
    return [_scaled(s) if scaled else s["wall_s"]
            for r in reps for s in r["stages"] if s["stage"] == stage]


def end_to_end(reps: list[dict], counts: dict, n_targets: int, scaled: bool = True) -> dict:
    """Medians over the given (untraced) repetitions."""
    def walls(stage: str) -> list[float]:
        return _walls(reps, stage, scaled)

    records = counts["corpus_records"]
    return {
        "setup_s": _median(walls("ingest")),
        "predict_eps": _median([n_targets / w for w in walls("predict")]),
        "evaluate_eps": _median([n_targets / w for w in walls("evaluate")]),
        "corpus_rps": _median([records / w for w in walls("build-corpus")]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
    }


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def tracing_overhead(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """(traced - untraced) / untraced per stage and over all four, from the
    stages' median scaled wall times."""
    base = {stage: _median(_walls(untraced, stage)) for stage in STAGES}
    spans = {stage: _median(_walls(traced, stage)) for stage in STAGES}
    out = {stage: spans[stage] / base[stage] - 1.0 for stage in STAGES}
    out["all"] = sum(spans.values()) / sum(base.values()) - 1.0
    return out


def per_layer(first_traced: dict, overhead: dict[str, float]) -> dict:
    """Per-layer metrics of the first traced repetition."""
    m = dict(first_traced["layers"])
    stub = first_traced["stub"]
    m["stub.requests"] = stub["requests"]
    m["stub.connections"] = stub["connections"]
    m["stub.connections_per_request"] = (
        stub["connections"] / stub["requests"] if stub["requests"] else 0.0)
    m["stub.max_in_flight"] = stub["max_in_flight"]
    m["proc.cpu_s"] = first_traced["cpu_s"]
    m["tracing.overhead_share"] = overhead["all"]
    return m


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "sqlbench" / "cli.py").is_file() or \
            not (root / "tests" / "fixtures").is_dir():
        print("benchmark: run from a sqlbench checkout (src/sqlbench and tests/fixtures"
              " are missing here)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        return _measure(args, workload, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, workload: Workload, root: Path, work: Path) -> int:
    data = work / "data"
    stub = None
    try:
        gen = subprocess.run(
            [sys.executable, str(HERE / "generate.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--out", str(data), "--size", args.size],
            capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
        if gen.returncode != 0:
            raise BenchError(f"input generation failed:\n{gen.stderr[-2000:]}")
        info = json.loads(gen.stdout.strip().splitlines()[-1])
        stub = StubProcess(root, data / "answers.json", workload.stub_delay_s,
                           _preferred_port(workload.name, args.seed))
        template = (data / "run.template.yaml").read_text("utf-8")
        (data / "run.yaml").write_text(template.replace(STUB_URL, stub.base_url), "utf-8")
        stub.warm()

        reps: list[dict] = []
        deadline = time.monotonic() + args.seconds
        while len(reps) < MAX_REPS:
            traced = bool(args.trace) and len(reps) % 2 == 1
            started = time.monotonic()
            before = stub.stats()
            rep = _run_rep(root, data, workload, len(reps), traced)
            after = stub.stats()
            rep["stub"] = {k: after[k] - before[k] for k in ("requests", "connections")}
            rep["stub"]["connections"] -= 1  # the stats read that took ``after``
            rep["stub"]["max_in_flight"] = after["max_in_flight"]
            reps.append(rep)
            enough = len(reps) >= MIN_REPS
            # start another repetition only if it should end by the deadline
            if enough and 2 * time.monotonic() - started > deadline:
                break
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        if stub is not None:
            stub.stop()
    return report(args, workload, data, info, reps, stub.port)


def report(args, workload: Workload, data: Path, info: dict, reps: list[dict], port: int) -> int:
    targets = json.loads((data / f"{workload.target_split}.json").read_text("utf-8"))
    problems, counts = check_outputs(workload, data, reps[0]["run_dir"])
    reference = _digests(reps[0]["run_dir"])
    for rep in reps[1:]:  # byte-identical outputs pass the same checks
        if _digests(rep["run_dir"]) != reference:
            problems.append(f"repetition {rep['rep']}: artifacts differ from repetition 0")
    stage_failures = sum(1 for r in reps for s in r["stages"] if s["exit"] != 0)
    if stage_failures or not all(r["completed"] for r in reps):
        problems.append(f"{stage_failures} stage runs did not exit 0")
    attempted = counts["requests"] + counts["scored"] + counts["corpus_records"] \
        + counts["corpus_skipped"]
    failed = counts["prediction_errors"] + stage_failures + counts["unplanted_failures"] \
        + counts["corpus_skipped"]
    correct = not problems

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    print(f"workload {workload.name}, seed {args.seed}: {len(untraced)} untraced and"
          f" {len(traced)} traced repetitions, each stage run a fresh process")
    print(f"inputs: {json.dumps(info, sort_keys=True)}")
    raw = end_to_end(untraced, counts, len(targets), scaled=False)
    for name, value in end_to_end(untraced, counts, len(targets)).items():
        print(f"  {name:<14} {value:>14.4f} {E2E_UNITS[name]:<11} (uncorrected {raw[name]:.4f})")
    probes = [s["probe_s"] for r in untraced for s in r["stages"]]
    print(f"  host speed: probe median {_median(probes) * 1000:.2f} ms against the reference"
          f" {REFERENCE_PROBE_S * 1000:.2f} ms; stolen share"
          f" {_median([r['stages'][0]['steal_share'] for r in untraced]):.3f}")
    print(f"  {'error_rate':<14} {failed / max(attempted, 1):>14.4f} ({failed} failed of"
          f" {attempted} attempted: {counts['requests']} endpoint requests,"
          f" {counts['scored']} scored examples,"
          f" {counts['corpus_records'] + counts['corpus_skipped']} corpus records)")
    if port != _preferred_port(workload.name, args.seed):
        print("note: the stub could not use its preferred port, so report and manifest"
              " digests are not comparable with other runs of this seed")
    for name, digest in reference.items():
        print(f"  sha256 {digest}  {name}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        overhead = tracing_overhead(untraced, traced)
        metrics = per_layer(traced[0], overhead)
        trace_dir = Path.cwd() / WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "environment": environment(),
            "per_layer": metrics, "tracing_overhead_share": overhead,
            "stage_layer_cover_s": traced[0]["coverage"],
            "spans": traced[0]["spans"],
        }, indent=1), "utf-8")
        for stage, cover in traced[0]["coverage"].items():
            busy = ", ".join(f"{layer} {seconds / cover['stage_s']:.0%}"
                             for layer, seconds in cover.items()
                             if layer != "stage_s" and seconds > 0.0)
            print(f"  {stage} {cover['stage_s']:.3f}s covered by: {busy}")
        print(f"  trace written to {trace_path.relative_to(Path.cwd())}")
        out = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": E2E_UNITS[name]}
               for name, value in end_to_end(untraced, counts, len(targets)).items()}
        print(json.dumps({"raw_metrics": {name: {"value": value, "unit": E2E_UNITS[name]}
                                          for name, value in raw.items()}}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def environment() -> dict:
    import platform
    import sqlite3

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (Path.cwd() / ".git").exists():  # never look above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "sqlite": sqlite3.sqlite_version, "nproc": os.cpu_count(), "git_commit": commit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting repetitions until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

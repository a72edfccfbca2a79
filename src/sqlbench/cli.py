"""Pipeline CLI: ingest, build-corpus, predict, evaluate, compare,
emit-train-profile, plus a stub endpoint for offline runs.

Exit statuses: 0 success, 1 validation or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import time
import typing
from dataclasses import fields
from pathlib import Path

from .artifacts import appending, log_path, write_text
from .corpus import TrainProfile, emit_train_profile, export_corpus, plan_prompts
from .datasets import DatasetBundle, DatasetError, ExampleTriple, load_bundle
from .inference import (
    Prediction,
    append_prediction,
    predict_batch,
    read_predictions,
    write_predictions,
)
from .metrics import read_eval_records, score_run, write_eval_records
from .prompts import BudgetExceededError, PromptEnvelope, TokenBudget
from .reporting import (
    CSV,
    PLAIN,
    STRUCTURED,
    compare_records,
    render_delta,
    render_summary,
    summarize,
)
from .runconfig import ConfigError, RunConfig, load_run_config
from .selection import DUAL_SIMILARITY, RANDOM, build_index, mix_shots
from .stub import StubBehavior, StubServer

# Not called here: the traced benchmark run (benchmarks/spans.py) looks these
# names up on this module and fails if one is missing.
from .datasets import validate_dataset  # noqa: F401
from .prompts import build_prompt  # noqa: F401
from .selection import select  # noqa: F401

logger = logging.getLogger("sqlbench")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _run_id(config: RunConfig, override: str | None) -> str:
    if override:
        return override
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{config.fingerprint()[:8]}"


def _run_dir(config: RunConfig, args) -> Path:
    output_dir = Path(args.output_dir) if args.output_dir else config.output_dir
    return output_dir / _run_id(config, args.run_id)


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _check_counts(**counts) -> None:
    """Shot counts from the command line are checked with the config, before
    any data is read or any run directory made."""
    for flag, values in counts.items():
        if any(value < 0 for value in values):
            raise ConfigError([f"--{flag} must be non-negative, got {min(values)}"])


def _check_pool(targets: list[ExampleTriple], pool: list[ExampleTriple],
                counts: dict[str, typing.Iterable[int]]) -> None:
    """Shot counts are checked against the pool once it is loaded, before any
    request or file: a target is never its own exemplar, so a pool that is
    the target split offers one candidate fewer than its size."""
    candidates = max(len(pool) - (pool is targets), 0)
    for name, values in counts.items():
        if max(values, default=0) > candidates:
            raise ConfigError([f"{name} {max(values)} exceeds the {candidates} exemplar"
                               " candidates in the pool"])


def _split(bundle: DatasetBundle, name: str, what: str = "split") -> list[ExampleTriple]:
    """The named split's examples; a split the dataset lacks is a dataset error."""
    if name not in bundle.splits:
        raise DatasetError(f"{what} {name!r} not in dataset")
    return bundle.splits[name]


def cmd_ingest(args) -> int:
    config = _load_config(args)
    bundle = load_bundle(config.dataset)
    run_dir = _run_dir(config, args)
    manifest = dict(bundle.manifest())
    manifest["config_fingerprint"] = config.fingerprint()
    path = run_dir / "manifest.json"
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"manifest written to {path}")
    for split, rows in sorted(bundle.splits.items()):
        print(f"  split {split}: {len(rows)} examples")
        unparseable = _unparseable_golds(rows)
        if unparseable:
            logger.warning(
                "split %s: %d gold queries outside the clause grammar"
                " (excluded from EM, kept for EX): %s",
                split, len(unparseable), unparseable[:10],
            )
    found = sum(1 for db in bundle.schemas if db in bundle.db_files)
    print(f"  databases: {found} of {len(bundle.schemas)} files found")
    return EXIT_OK


def _unparseable_golds(rows: list[ExampleTriple]) -> list[int]:
    """Indexes of the examples whose gold is outside the clause grammar.
    Parseability does not depend on the schema, so each distinct gold text
    is checked once, whatever databases it is asked of."""
    from .sqlkit import SqlParseError, check_sql

    parses: dict[str, bool] = {}
    bad = []
    for example in rows:
        sql = example.gold_sql
        if sql not in parses:
            try:
                check_sql(sql)
                parses[sql] = True
            except SqlParseError:
                parses[sql] = False
        if not parses[sql]:
            bad.append(example.index)
    return bad


def cmd_build_corpus(args) -> int:
    jobs: list[tuple[str, tuple[int, ...]]] = []  # (filename, shot choices)
    if args.random_shot:
        jobs.append((f"{args.split}_random_shot.jsonl", tuple(args.choices)))
    # a count named twice is one corpus, in the order first named
    jobs += [(f"{args.split}_k{k}.jsonl", (k,)) for k in dict.fromkeys(args.k)]
    if not jobs:
        raise ConfigError(["nothing to do: pass --k and/or --random-shot"])
    _check_counts(k=args.k, choices=args.choices)
    if args.random_shot and not args.choices:
        raise ConfigError(["--choices must name at least one shot count for --random-shot"])
    config = _load_config(args)
    bundle = load_bundle(config.dataset, splits=(args.split,))
    split = _split(bundle, args.split)
    _check_pool(split, split,
                {"--k": args.k, "--choices": args.choices if args.random_shot else ()})
    run_dir = _run_dir(config, args)
    # one similarity index serves every job; only a job with some k > 0 uses it
    index = None
    if config.selection.strategy != RANDOM and any(any(choices) for _, choices in jobs):
        index = build_index(split, bundle.schemas)
    # the plan sets each target's k, so one policy serves every job
    policy = config.selection.policy(default_seed=config.seed)
    for filename, choices in jobs:
        out = run_dir / "corpus" / filename
        summary = export_corpus(
            split, bundle, config.prompt, policy, choices, out, index=index
        )
        summary_path = out.with_suffix(".summary.json")
        write_text(
            summary_path, json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"corpus {out}: {summary.records} records, skipped {len(summary.skipped)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_counts(shots=[] if args.shots is None else [args.shots])
    config = _load_config(args)
    try:  # the key is checked before any data is read or file made
        config.endpoint.api_key()
    except ValueError as exc:
        raise ConfigError([f"endpoint.api_key_env: {exc}"]) from None
    policy = config.selection.policy(default_seed=config.seed, k=args.shots)
    if policy.k and policy.strategy == DUAL_SIMILARITY:
        raise ConfigError([f"selection.strategy {DUAL_SIMILARITY!r} ranks exemplars by a draft"
                           " SQL per target, which predict does not take; use"
                           " question-similarity or random"])
    # the pool is read only when exemplars are drawn from it
    pool_split = (config.selection.pool,) if policy.k else ()
    bundle = load_bundle(config.dataset, splits=(args.split, *pool_split))
    targets = _split(bundle, args.split)
    pool = _split(bundle, config.selection.pool, "selection.pool split") if policy.k else []
    _check_pool(targets, pool, {"selection.k" if args.shots is None else "--shots": [policy.k]})
    out = _run_dir(config, args) / "predictions" / f"{args.split}_shots{policy.k}.jsonl"
    log = log_path(out)
    # the finished file, then the append log of a rerun that retries its errors
    recorded = read_predictions(*(path for path in (out, log) if path.is_file()))
    # a record that sent no request was over budget at k=0: no rerun can change it
    done = {index: p for index, p in recorded.items() if p.error is None or not p.attempt_count}
    todo = [target for target in targets if target.index not in done]
    # a leftover append log means the last run did not rewrite the final file
    if out.is_file() and not log.is_file() and not todo:
        print(f"predictions already complete at {out}")
        return EXIT_OK
    if recorded:
        print(f"resuming: {len(done)} predictions already recorded,"
              f" {len(recorded) - len(done)} errored ones requested again")

    def sink(prediction) -> None:
        if not config.endpoint.record_latency:
            prediction.latency_ms = 0.0
        append_prediction(append, prediction)  # the log the batch below holds open
        recorded[prediction.example_index] = prediction  # over one absent or errored

    def planned() -> typing.Iterator[PromptEnvelope]:
        """Each target's prompt, planned as the batch has room for it."""
        for target, envelope in plan_prompts(
            todo, pool, policy, mix_shots(policy, todo, (policy.k,)), bundle.schemas,
            config.prompt, TokenBudget(reserved_response=config.endpoint.max_response_tokens),
        ):
            if isinstance(envelope, BudgetExceededError):
                # no request can hold this prompt: the example errors, the run goes on
                logger.warning("example %d: %s at k=0", target.index, envelope)
                sink(Prediction(target.index, attempt_count=0, error=f"{envelope} at k=0"))
                continue
            yield envelope

    with appending(log) as append:
        predict_batch(planned(), config.endpoint, on_result=sink)
    write_predictions(out, recorded)
    errors = [p for p in recorded.values() if p.error is not None]
    over_budget = sum(1 for p in errors if not p.attempt_count)
    errored = len(errors) - over_budget
    notes = [f"{over_budget} over budget at k=0"] if over_budget else []
    if errored:
        notes.append(f"{errored} errored; rerun predict to retry them")
    print(f"{len(recorded)} predictions written to {out}" + (f" ({'; '.join(notes)})" if notes else ""))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predictions_path = Path(args.predictions)
    if not predictions_path.is_file():
        raise ConfigError([f"--predictions: no file at {predictions_path}"])
    config = _load_config(args)
    bundle = load_bundle(config.dataset, splits=(args.split,))
    examples = _split(bundle, args.split)
    predictions = read_predictions(predictions_path)
    records = score_run(examples, predictions, bundle, config.metrics)
    run_dir = _run_dir(config, args)
    reports_dir = run_dir / "reports"
    records_path = run_dir / "eval" / f"{args.split}_records.jsonl"
    write_eval_records(records, records_path)

    dropped = sum(1 for r in records if r.difficulty is None)
    if dropped:
        logger.warning("%d records lack a difficulty label; excluded from summary", dropped)
    summary = summarize(
        records, run_id=run_dir.name, config_fingerprint=config.fingerprint(),
        scheme=config.scheme(),
    )
    write_text(reports_dir / f"{args.split}_summary.txt", render_summary(summary, PLAIN))
    write_text(reports_dir / f"{args.split}_summary.csv", render_summary(summary, CSV))
    write_text(reports_dir / f"{args.split}_summary.json", render_summary(summary, STRUCTURED))
    print(render_summary(summary, PLAIN), end="")
    print(f"records: {records_path}")
    print(f"reports: {reports_dir}")
    return EXIT_OK


def cmd_compare(args) -> int:
    try:
        report = compare_records(read_eval_records(args.base), read_eval_records(args.target),
                                 args.base, args.target)
    except (OSError, ValueError) as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(render_delta(report, PLAIN), end="")
    if args.out:
        write_text(Path(args.out), render_delta(report, STRUCTURED))
        print(f"delta report: {args.out}")
    return EXIT_OK


def cmd_emit_train_profile(args) -> int:
    try:
        profile = TrainProfile(**{f.name: getattr(args, f.name) for f in fields(TrainProfile)})
    except ValueError as exc:
        raise ConfigError([f"invalid profile: {exc}"]) from exc
    path = emit_train_profile(profile, args.out)
    print(f"training profile written to {path}")
    return EXIT_OK


def _canned_answers(path: str) -> dict[str, str]:
    """question -> gold SQL from an examples file: a JSON list of records, each
    with a ``question`` and a Spider ``query`` or a BIRD ``SQL``. A record
    without a string gold is left out, so the fallback answers its question."""
    try:
        with open(path, encoding="utf-8") as fp:
            records = json.load(fp)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"--examples {path}: {exc}"]) from exc
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and isinstance(rec.get("question"), str) for rec in records
    ):
        raise ConfigError([f"--examples {path}: not a JSON list of records with a question"])
    golds = ((rec["question"], rec.get("query", rec.get("SQL"))) for rec in records)
    return {question: sql for question, sql in golds if isinstance(sql, str)}


def cmd_stub(args) -> int:
    answers = _canned_answers(args.examples) if args.examples else {}
    behavior = StubBehavior(answers=answers, fallback_sql=args.fallback)
    server = StubServer(behavior, host=args.host, port=args.port)
    server.start()
    # `kill` stops it as Ctrl-C does: a stub a script starts with `&` ignores SIGINT
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    # flushed: a parent reading a pipe waits on this line for the URL
    print(f"stub endpoint serving at {server.base_url} ({len(answers)} canned answers)",
          flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    finally:
        signal.signal(signal.SIGTERM, previous)
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _port(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """An argument error is a config error: usage and one line, exit 1.
    Subparsers are made of this class too."""

    def error(self, message: str) -> typing.NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _run_options(p: argparse.ArgumentParser) -> None:
    """The options of every command that runs on a config."""
    p.add_argument("--config", required=True, help="run config file (YAML)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--output-dir", default=None, help="override the output directory")
    p.add_argument("--run-id", default=None,
                   help="pin the run id (default: timestamp + config fingerprint)")


def _build_corpus_arguments(p: argparse.ArgumentParser) -> None:
    _run_options(p)
    p.add_argument("--split", default="train")
    p.add_argument("--k", type=_int_list, default=[],
                   help="comma-separated shot counts, one corpus per count")
    p.add_argument("--random-shot", action="store_true",
                   help="also export one corpus with per-example shot counts"
                        " drawn from --choices")
    p.add_argument("--choices", type=_int_list, default=(0, 1, 3, 5),
                   help="random-shot choice set, default %(default)s")


def _predict_arguments(p: argparse.ArgumentParser) -> None:
    _run_options(p)
    p.add_argument("--split", default="dev")
    p.add_argument("--shots", type=int, default=None,
                   help="exemplars per prompt (default: selection.k)")


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    _run_options(p)
    p.add_argument("--split", default="dev")
    p.add_argument("--predictions", required=True)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", required=True, help="baseline run's eval records (JSONL)")
    p.add_argument("--target", required=True, help="target run's eval records (JSONL)")
    p.add_argument("--out", default=None, help="write the structured delta report here")


def _profile_arguments(p: argparse.ArgumentParser) -> None:
    # one flag per profile field, with the field's type and default
    hints = typing.get_type_hints(TrainProfile)
    for f in fields(TrainProfile):
        p.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name], default=f.default)
    p.add_argument("--out", required=True)


def _stub_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--examples", default=None, help="examples file for gold-echo answers")
    p.add_argument("--fallback", default="SELECT 1")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8181, help="0-65535; 0 picks a free port")


# command -> (what runs it, its help line, what adds its arguments)
COMMANDS = {
    "ingest": (cmd_ingest, "load and validate the dataset", _run_options),
    "build-corpus": (cmd_build_corpus, "export fine-tuning corpora", _build_corpus_arguments),
    "predict": (cmd_predict, "request predictions for a split", _predict_arguments),
    "evaluate": (cmd_evaluate, "score a prediction file", _evaluate_arguments),
    "compare": (cmd_compare, "delta report between two runs on the same examples",
                _compare_arguments),
    "emit-train-profile": (cmd_emit_train_profile, "write a training-config profile",
                           _profile_arguments),
    "stub": (cmd_stub, "serve the deterministic stub endpoint", _stub_arguments),
}


def build_parser(argv: typing.Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``. Every command is listed by name and help, but
    only the first one ``argv`` names gets its arguments: a stage does not
    pay to build the other commands' (the top-level parser takes no option
    with a value, so the command is the first argument that names one)."""
    parser = _Parser(
        prog="sqlbench",
        description="Text-to-SQL benchmarking pipeline: dataset construction,"
        " prediction, evaluation, and fine-tuning corpus export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (func, help_line, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for error in exc.errors:
            print(f"config: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        for error in exc.args:
            print(f"dataset: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure: report, nonzero exit
        logger.exception("runtime failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

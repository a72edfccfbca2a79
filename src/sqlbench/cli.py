"""Pipeline CLI: ingest, build-corpus, predict, evaluate, compare,
emit-train-profile, plus a stub endpoint for offline runs.

Exit statuses: 0 success, 1 validation or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
import typing
from dataclasses import fields
from pathlib import Path

from .corpus import TrainProfile, emit_train_profile, export_corpus, plan_prompts
from .datasets import DatasetBundle, DatasetError, ExampleTriple, load_bundle
from .inference import (
    Prediction,
    append_prediction,
    predict_batch,
    read_predictions,
    write_predictions,
)
from .metrics import score_run, write_eval_records
from .prompts import BudgetExceededError, TokenBudget
from .reporting import (
    CSV,
    PLAIN,
    STRUCTURED,
    RunSummary,
    compare,
    parse_summary_csv,
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
    run_dir = output_dir / _run_id(config, args.run_id)
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _load_config(args) -> RunConfig:
    config = load_run_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _atomic_write(path: Path, text: str) -> None:
    partial = path.with_name(path.name + ".partial")
    partial.write_text(text, encoding="utf-8")
    os.replace(partial, path)


def _check_counts(**counts) -> None:
    """Shot counts from the command line are checked with the config, before
    any data is read or any run directory made."""
    for flag, values in counts.items():
        if any(value < 0 for value in values):
            raise ConfigError([f"--{flag} must be non-negative, got {min(values)}"])


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
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"manifest written to {path}")
    for split, rows in sorted(bundle.splits.items()):
        print(f"  split {split}: {len(rows)} examples")
        unparseable = _unparseable_golds(bundle, rows)
        if unparseable:
            logger.warning(
                "split %s: %d gold queries outside the clause grammar"
                " (excluded from EM, kept for EX): %s",
                split, len(unparseable), unparseable[:10],
            )
    found = sum(1 for db in bundle.schemas if db in bundle.db_files)
    print(f"  databases: {found} of {len(bundle.schemas)} files found")
    return EXIT_OK


def _unparseable_golds(bundle: DatasetBundle, rows) -> list[int]:
    """Indexes of the examples whose gold is outside the clause grammar;
    each distinct (db_id, gold_sql) is parsed once."""
    from .sqlkit import SqlParseError, parse_sql

    parses: dict[tuple[str, str], bool] = {}
    bad = []
    for example in rows:
        key = (example.db_id, example.gold_sql)
        if key not in parses:
            try:
                parse_sql(example.gold_sql, bundle.schemas[example.db_id])
                parses[key] = True
            except SqlParseError:
                parses[key] = False
        if not parses[key]:
            bad.append(example.index)
    return bad


def cmd_build_corpus(args) -> int:
    jobs: list[tuple[str, tuple[int, ...]]] = []  # (filename, shot choices)
    if args.random_shot:
        jobs.append((f"{args.split}_random_shot.jsonl", tuple(args.choices)))
    jobs += [(f"{args.split}_k{k}.jsonl", (k,)) for k in args.k]
    if not jobs:
        raise ConfigError(["nothing to do: pass --k and/or --random-shot"])
    _check_counts(k=args.k, choices=args.choices)
    if args.random_shot and not args.choices:
        raise ConfigError(["--choices must name at least one shot count for --random-shot"])
    config = _load_config(args)
    bundle = load_bundle(config.dataset)
    split = _split(bundle, args.split)
    run_dir = _run_dir(config, args)
    corpus_dir = run_dir / "corpus"
    corpus_dir.mkdir(exist_ok=True)
    # one similarity index serves every job; only a job with some k > 0 uses it
    index = None
    if config.selection.strategy != RANDOM and any(any(choices) for _, choices in jobs):
        index = build_index(split, bundle.schemas)
    # the plan sets each target's k, so one policy serves every job
    policy = config.selection.policy(default_seed=config.seed)
    for filename, choices in jobs:
        out = corpus_dir / filename
        partial = out.with_name(out.name + ".partial")
        summary = export_corpus(
            split, bundle, config.prompt, policy, choices, partial, index=index
        )
        os.replace(partial, out)
        summary_path = out.with_suffix(".summary.json")
        _atomic_write(
            summary_path, json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"corpus {out}: {summary.records} records, skipped {len(summary.skipped)}")
    return EXIT_OK


def cmd_predict(args) -> int:
    _check_counts(shots=[] if args.shots is None else [args.shots])
    config = _load_config(args)
    policy = config.selection.policy(default_seed=config.seed, k=args.shots)
    if policy.k and policy.strategy == DUAL_SIMILARITY:
        raise ConfigError([f"selection.strategy {DUAL_SIMILARITY!r} ranks exemplars by a draft"
                           " SQL per target, which predict does not take; use"
                           " question-similarity or random"])
    bundle = load_bundle(config.dataset)
    targets = _split(bundle, args.split)
    pool = _split(bundle, config.selection.pool, "selection.pool split") if policy.k else []
    run_dir = _run_dir(config, args)
    pred_dir = run_dir / "predictions"
    pred_dir.mkdir(exist_ok=True)
    out = pred_dir / f"{args.split}_shots{policy.k}.jsonl"
    partial = out.with_name(out.name + ".partial")
    # the finished file, then the append log of a rerun that retries its errors
    recorded = read_predictions(*(path for path in (out, partial) if path.is_file()))
    done = {index: p for index, p in recorded.items() if p.error is None}
    # a leftover append log means the last run did not rewrite the final file
    if out.is_file() and not partial.is_file() and len(done) == len(recorded):
        print(f"predictions already complete at {out}")
        return EXIT_OK
    if recorded:
        print(f"resuming: {len(done)} predictions already recorded,"
              f" {len(recorded) - len(done)} errored ones requested again")

    def sink(prediction) -> None:
        if not config.endpoint.record_latency:
            prediction.latency_ms = 0.0
        append_prediction(partial, prediction)

    todo = [target for target in targets if target.index not in done]
    envelopes = []
    for target, envelope in plan_prompts(
        todo, pool, policy, mix_shots(policy, todo, (policy.k,)), bundle.schemas,
        config.prompt, TokenBudget(),
    ):
        if isinstance(envelope, BudgetExceededError):
            # no request can hold this prompt: the example errors, the run goes on
            logger.warning("example %d: %s at k=0", target.index, envelope)
            sink(Prediction(target.index, attempt_count=0, error=f"{envelope} at k=0"))
            continue
        envelopes.append(envelope)

    predict_batch(envelopes, config.endpoint, on_result=sink)
    merged = read_predictions(*(path for path in (out, partial) if path.is_file()))
    # the final file appears whole or not at all; the append log goes last
    writing = out.with_name(out.name + ".writing")
    write_predictions(writing, merged)
    os.replace(writing, out)
    partial.unlink(missing_ok=True)
    errored = sum(1 for p in merged.values() if p.error is not None)
    retry = f" ({errored} errored; rerun predict to retry them)" if errored else ""
    print(f"{len(merged)} predictions written to {out}{retry}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    predictions_path = Path(args.predictions)
    if not predictions_path.is_file():
        raise ConfigError([f"--predictions: no file at {predictions_path}"])
    config = _load_config(args)
    bundle = load_bundle(config.dataset)
    examples = _split(bundle, args.split)
    predictions = read_predictions(predictions_path)
    records = score_run(examples, predictions, bundle, config.metrics)
    run_dir = _run_dir(config, args)
    eval_dir = run_dir / "eval"
    reports_dir = run_dir / "reports"
    eval_dir.mkdir(exist_ok=True)
    reports_dir.mkdir(exist_ok=True)
    records_path = eval_dir / f"{args.split}_records.jsonl"
    partial = records_path.with_name(records_path.name + ".partial")
    write_eval_records(records, partial)
    os.replace(partial, records_path)

    labeled = [r for r in records if r.difficulty is not None]
    dropped = len(records) - len(labeled)
    if dropped:
        logger.warning("%d records lack a difficulty label; excluded from summary", dropped)
    summary = summarize(
        labeled, run_id=run_dir.name, config_fingerprint=config.fingerprint(),
        scheme=config.scheme(),
    )
    _atomic_write(reports_dir / f"{args.split}_summary.txt", render_summary(summary, PLAIN))
    _atomic_write(reports_dir / f"{args.split}_summary.csv", render_summary(summary, CSV))
    _atomic_write(reports_dir / f"{args.split}_summary.json", render_summary(summary, STRUCTURED))
    print(render_summary(summary, PLAIN), end="")
    print(f"records: {records_path}")
    print(f"reports: {reports_dir}")
    return EXIT_OK


def _read_summary(path: str) -> RunSummary:
    try:
        return parse_summary_csv(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_compare(args) -> int:
    try:
        report = compare(_read_summary(args.base), _read_summary(args.target))
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(render_delta(report, PLAIN), end="")
    if args.out:
        _atomic_write(Path(args.out), render_delta(report, STRUCTURED))
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
    with a ``question`` and a Spider ``query`` or a BIRD ``SQL``."""
    try:
        with open(path, encoding="utf-8") as fp:
            records = json.load(fp)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"--examples {path}: {exc}"]) from exc
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) and isinstance(rec.get("question"), str) for rec in records
    ):
        raise ConfigError([f"--examples {path}: not a JSON list of records with a question"])
    return {rec["question"]: rec.get("query", rec.get("SQL", "SELECT 1")) for rec in records}


def cmd_stub(args) -> int:
    answers = _canned_answers(args.examples) if args.examples else {}
    behavior = StubBehavior(answers=answers, fallback_sql=args.fallback)
    server = StubServer(behavior, host=args.host, port=args.port)
    server.start()
    print(f"stub endpoint serving at {server.base_url} ({len(answers)} canned answers)")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


class _Parser(argparse.ArgumentParser):
    """An argument error is a config error: usage and one line, exit 1.
    Subparsers are made of this class too."""

    def error(self, message: str) -> typing.NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sqlbench",
        description="Text-to-SQL benchmarking pipeline: dataset construction,"
        " prediction, evaluation, and fine-tuning corpus export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="run config file (YAML)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--output-dir", default=None, help="override the output directory")
    common.add_argument("--run-id", default=None,
                        help="pin the run id (default: timestamp + config fingerprint)")

    p = sub.add_parser("ingest", parents=[common], help="load and validate the dataset")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-corpus", parents=[common], help="export fine-tuning corpora")
    p.add_argument("--split", default="train")
    p.add_argument("--k", type=_int_list, default=[],
                   help="comma-separated shot counts, one corpus per count")
    p.add_argument("--random-shot", action="store_true",
                   help="also export one corpus with per-example shot counts"
                        " drawn from --choices")
    p.add_argument("--choices", type=_int_list, default=(0, 1, 3, 5),
                   help="random-shot choice set, default %(default)s")
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("predict", parents=[common], help="request predictions for a split")
    p.add_argument("--split", default="dev")
    p.add_argument("--shots", type=int, default=None,
                   help="exemplars per prompt (default: selection.k)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="score a prediction file")
    p.add_argument("--split", default="dev")
    p.add_argument("--predictions", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="delta report between two run summaries")
    p.add_argument("--base", required=True, help="baseline summary CSV")
    p.add_argument("--target", required=True, help="target summary CSV")
    p.add_argument("--out", default=None, help="write the structured delta report here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("emit-train-profile", help="write a training-config profile")
    # one flag per profile field, with the field's type and default
    hints = typing.get_type_hints(TrainProfile)
    for f in fields(TrainProfile):
        p.add_argument("--" + f.name.replace("_", "-"), type=hints[f.name], default=f.default)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_emit_train_profile)

    p = sub.add_parser("stub", help="serve the deterministic stub endpoint")
    p.add_argument("--examples", default=None, help="examples file for gold-echo answers")
    p.add_argument("--fallback", default="SELECT 1")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8181)
    p.set_defaults(func=cmd_stub)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
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

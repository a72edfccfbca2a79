"""Aggregation of per-example verdicts into per-difficulty summaries,
run-versus-run deltas, and rendered tables."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .datasets import BIRD_LABELS, SPIDER_LABELS
from .metrics import EvalRecord

_SCHEME_LABELS = {"spider4": SPIDER_LABELS, "bird3": BIRD_LABELS}
OVERALL = "overall"


@dataclass
class BucketCounts:
    n: int = 0
    em_scored: int = 0
    em_correct: int = 0
    ex_scored: int = 0
    ex_correct: int = 0

    def add(self, record: EvalRecord) -> None:
        self.n += 1
        if record.em is not None:
            self.em_scored += 1
            self.em_correct += int(record.em)
        if record.ex is not None:
            self.ex_scored += 1
            self.ex_correct += int(record.ex)

    def em_rate(self) -> Fraction | None:
        return Fraction(self.em_correct, self.em_scored) if self.em_scored else None

    def ex_rate(self) -> Fraction | None:
        return Fraction(self.ex_correct, self.ex_scored) if self.ex_scored else None


@dataclass
class RunSummary:
    run_id: str
    scheme: str
    buckets: dict[str, BucketCounts]
    overall: BucketCounts
    ves_mean: float | None
    config_fingerprint: str

    def labels(self) -> tuple[str, ...]:
        return _SCHEME_LABELS[self.scheme]


def summarize(
    records: list[EvalRecord],
    run_id: str,
    config_fingerprint: str,
    scheme: str = "spider4",
) -> RunSummary:
    """Reduce records into per-bucket and overall counts.

    Rates are stored exactly as correct/scored counts; rendering rounds to
    three decimals. The VES mean covers every record whose execution verdict
    was computed, counting incorrect predictions as zero efficiency.
    """
    buckets = {label: BucketCounts() for label in _SCHEME_LABELS[scheme]}
    overall = BucketCounts()
    ves_total = 0.0
    ves_n = 0
    ves_seen = False
    for record in records:
        if record.difficulty is None:
            raise ValueError(
                f"record {record.example_index} carries no difficulty label"
            )
        if record.difficulty.scheme != scheme:
            raise ValueError(
                f"record {record.example_index} carries scheme"
                f" {record.difficulty.scheme}, summary uses {scheme}"
            )
        buckets[record.difficulty.label].add(record)
        overall.add(record)
        if record.ex is not None:
            ves_n += 1
            if record.ves_ratio is not None:
                ves_seen = True
                if record.ex:
                    ves_total += record.ves_ratio
    # absent entirely when no ratios were computed (VES disabled for the run)
    ves_mean = (ves_total / ves_n) if ves_seen and ves_n else None
    return RunSummary(
        run_id=run_id,
        scheme=scheme,
        buckets=buckets,
        overall=overall,
        ves_mean=ves_mean,
        config_fingerprint=config_fingerprint,
    )


@dataclass
class DeltaReport:
    base_run: str
    target_run: str
    scheme: str
    em_deltas: dict[str, Fraction | None] = field(default_factory=dict)
    ex_deltas: dict[str, Fraction | None] = field(default_factory=dict)

    def labels(self) -> tuple[str, ...]:
        return _SCHEME_LABELS[self.scheme]


def _delta(target: Fraction | None, base: Fraction | None) -> Fraction | None:
    if target is None or base is None:
        return None
    return target - base


def compare(base: RunSummary, target: RunSummary) -> DeltaReport:
    """Per-bucket and overall rate deltas, positive = target better, exact
    rational arithmetic."""
    if base.scheme != target.scheme:
        raise ValueError(f"difficulty schemes differ: {base.scheme} vs {target.scheme}")
    report = DeltaReport(base_run=base.run_id, target_run=target.run_id, scheme=base.scheme)
    for label in base.labels():
        report.em_deltas[label] = _delta(
            target.buckets[label].em_rate(), base.buckets[label].em_rate()
        )
        report.ex_deltas[label] = _delta(
            target.buckets[label].ex_rate(), base.buckets[label].ex_rate()
        )
    report.em_deltas[OVERALL] = _delta(target.overall.em_rate(), base.overall.em_rate())
    report.ex_deltas[OVERALL] = _delta(target.overall.ex_rate(), base.overall.ex_rate())
    return report


def format_rate(value: Fraction | float | None, signed: bool = False) -> str:
    """Round half-up to three decimals, the precision used in reports."""
    if value is None:
        return "n/a"
    if isinstance(value, Fraction):
        dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(float(value)))
    quantized = dec.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    text = f"{quantized:+.3f}" if signed else f"{quantized:.3f}"
    return text


PLAIN = "plain-table"
CSV = "csv"
STRUCTURED = "structured"

_COUNT_COLUMNS = ("n", "em_scored", "em_correct", "ex_scored", "ex_correct")
_CSV_COLUMNS = ("run_id", "config_fingerprint", "scheme", "bucket", *_COUNT_COLUMNS, "ves_mean")


def _summary_columns(summary: RunSummary) -> list[tuple[str, BucketCounts]]:
    cols = [(label, summary.buckets[label]) for label in summary.labels()]
    cols.append((OVERALL, summary.overall))
    return cols


def render_summary(summary: RunSummary, fmt: str = PLAIN) -> str:
    if fmt == PLAIN:
        columns = _summary_columns(summary)
        width = max(8, *(len(label) for label, _ in columns))
        header = ["metric".ljust(8)] + [label.capitalize().rjust(width) for label, _ in columns]
        lines = [
            f"run: {summary.run_id}",
            f"config: {summary.config_fingerprint}",
            "  ".join(header),
            "  ".join(["n".ljust(8)] + [str(c.n).rjust(width) for _, c in columns]),
            "  ".join(["em".ljust(8)] + [format_rate(c.em_rate()).rjust(width) for _, c in columns]),
            "  ".join(["ex".ljust(8)] + [format_rate(c.ex_rate()).rjust(width) for _, c in columns]),
        ]
        if summary.ves_mean is not None:
            lines.append(f"ves mean: {format_rate(summary.ves_mean)}")
        return "\n".join(lines) + "\n"
    if fmt == CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for label, counts in _summary_columns(summary):
            ves = ""
            if label == OVERALL and summary.ves_mean is not None:
                ves = repr(summary.ves_mean)
            writer.writerow(
                [summary.run_id, summary.config_fingerprint, summary.scheme, label,
                 counts.n, counts.em_scored, counts.em_correct,
                 counts.ex_scored, counts.ex_correct, ves]
            )
        return buffer.getvalue()
    if fmt == STRUCTURED:
        payload = {
            "run_id": summary.run_id,
            "config_fingerprint": summary.config_fingerprint,
            "scheme": summary.scheme,
            "buckets": {
                label: {
                    "n": c.n,
                    "em_scored": c.em_scored,
                    "em_correct": c.em_correct,
                    "ex_scored": c.ex_scored,
                    "ex_correct": c.ex_correct,
                    "em_rate": format_rate(c.em_rate()),
                    "ex_rate": format_rate(c.ex_rate()),
                }
                for label, c in _summary_columns(summary)
            },
            "ves_mean": summary.ves_mean,
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_summary_csv(text: str) -> RunSummary:
    """Inverse of the CSV rendering, at full precision. Text that is not a
    summary CSV, with a column missing, an unknown scheme or bucket, or a
    count that is not an integer, raises ValueError."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [name for name in _CSV_COLUMNS if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"not a summary csv: missing columns {missing}")
    rows = list(reader)
    if not rows:
        raise ValueError("empty summary csv")
    scheme = rows[0]["scheme"]
    if scheme not in _SCHEME_LABELS:
        raise ValueError(f"unknown difficulty scheme {scheme!r}")
    summary = RunSummary(
        run_id=rows[0]["run_id"],
        scheme=scheme,
        buckets={label: BucketCounts() for label in _SCHEME_LABELS[scheme]},
        overall=BucketCounts(),
        ves_mean=None,
        config_fingerprint=rows[0]["config_fingerprint"],
    )
    for row in rows:
        bucket = row["bucket"]
        if bucket != OVERALL and bucket not in summary.buckets:
            raise ValueError(f"unknown bucket {bucket!r} for scheme {scheme}")
        try:
            counts = BucketCounts(*(int(row[name]) for name in _COUNT_COLUMNS))
        except (TypeError, ValueError):
            raise ValueError(f"bucket {bucket!r}: counts must be integers") from None
        if bucket == OVERALL:
            summary.overall = counts
            if row["ves_mean"]:
                summary.ves_mean = float(row["ves_mean"])
        else:
            summary.buckets[bucket] = counts
    return summary


def render_delta(report: DeltaReport, fmt: str = PLAIN) -> str:
    labels = list(report.labels()) + [OVERALL]
    if fmt == PLAIN:
        width = max(8, *(len(label) for label in labels))
        lines = [
            f"base: {report.base_run}",
            f"target: {report.target_run}",
            "  ".join(["metric".ljust(8)] + [l.capitalize().rjust(width) for l in labels]),
            "  ".join(
                ["em".ljust(8)]
                + [format_rate(report.em_deltas[l], signed=True).rjust(width) for l in labels]
            ),
            "  ".join(
                ["ex".ljust(8)]
                + [format_rate(report.ex_deltas[l], signed=True).rjust(width) for l in labels]
            ),
        ]
        return "\n".join(lines) + "\n"
    if fmt == STRUCTURED:
        payload = {
            "base_run": report.base_run,
            "target_run": report.target_run,
            "scheme": report.scheme,
            "em_deltas": {l: format_rate(report.em_deltas[l], signed=True) for l in labels},
            "ex_deltas": {l: format_rate(report.ex_deltas[l], signed=True) for l in labels},
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")

"""Aggregation of per-example verdicts into per-difficulty summaries,
run-versus-run deltas, and rendered tables."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from .datasets import SCHEME_LABELS
from .metrics import EvalRecord

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
    buckets: dict[str, BucketCounts]  # the scheme's labels in order, then OVERALL
    ves_mean: float | None
    config_fingerprint: str


def summarize(
    records: list[EvalRecord],
    run_id: str,
    config_fingerprint: str,
    scheme: str = "spider4",
) -> RunSummary:
    """Reduce the labeled records into per-bucket and overall counts; a
    record without a difficulty label is left out. ValueError if a label is
    of another scheme.

    Rates are stored exactly as correct/scored counts; rendering rounds to
    three decimals. The VES mean covers every record whose execution verdict
    was computed, counting incorrect predictions as zero efficiency.
    """
    buckets = {label: BucketCounts() for label in (*SCHEME_LABELS[scheme], OVERALL)}
    ves_total = 0.0
    ves_n = 0
    ves_seen = False
    for record in records:
        if record.difficulty is None:
            continue
        if record.difficulty.scheme != scheme:
            raise ValueError(
                f"record {record.example_index} carries scheme"
                f" {record.difficulty.scheme}, summary uses {scheme}"
            )
        buckets[record.difficulty.label].add(record)
        buckets[OVERALL].add(record)
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
    for label, counts in base.buckets.items():
        report.em_deltas[label] = _delta(target.buckets[label].em_rate(), counts.em_rate())
        report.ex_deltas[label] = _delta(target.buckets[label].ex_rate(), counts.ex_rate())
    return report


def compare_records(base: list[EvalRecord], target: list[EvalRecord],
                    base_run: str, target_run: str) -> DeltaReport:
    """``compare`` of two runs of the same examples, each summarized as
    ``evaluate`` does: its labeled records under their scheme. ValueError if
    the runs score different examples, label one differently, or label none."""
    labels, other = ({r.example_index: r.difficulty for r in run} for run in (base, target))
    if labels.keys() != other.keys():
        raise ValueError(f"{base_run} and {target_run} score different examples:"
                         f" {len(labels.keys() - other.keys())} only in the first,"
                         f" {len(other.keys() - labels.keys())} only in the second")
    for index, label in labels.items():
        if other[index] != label:
            first, second = (d.label if d else "unlabeled" for d in (label, other[index]))
            raise ValueError(f"example {index} is {first} in {base_run}"
                             f" but {second} in {target_run}")
    schemes = [d.scheme for d in labels.values() if d is not None]
    if not schemes:
        raise ValueError(f"no example of {base_run} or {target_run} carries a difficulty label")
    return compare(*(summarize(run, name, "", schemes[0])
                     for run, name in ((base, base_run), (target, target_run))))


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

_CSV_COLUMNS = ("run_id", "config_fingerprint", "scheme", "bucket",
                "n", "em_scored", "em_correct", "ex_scored", "ex_correct", "ves_mean")


def _plain_table(labels, rows: dict[str, list[str]]) -> list[str]:
    """A header line of the capitalized labels, then one line per metric."""
    width = max(8, *(len(label) for label in labels))
    rows = {"metric": [label.capitalize() for label in labels], **rows}
    return ["  ".join([name.ljust(8)] + [cell.rjust(width) for cell in cells])
            for name, cells in rows.items()]


def render_summary(summary: RunSummary, fmt: str = PLAIN) -> str:
    if fmt == PLAIN:
        counts = summary.buckets.values()
        lines = [
            f"run: {summary.run_id}",
            f"config: {summary.config_fingerprint}",
            *_plain_table(summary.buckets, {
                "n": [str(c.n) for c in counts],
                "em": [format_rate(c.em_rate()) for c in counts],
                "ex": [format_rate(c.ex_rate()) for c in counts],
            }),
        ]
        if summary.ves_mean is not None:
            lines.append(f"ves mean: {format_rate(summary.ves_mean)}")
        return "\n".join(lines) + "\n"
    if fmt == CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for label, counts in summary.buckets.items():
            ves = ""
            if label == OVERALL and summary.ves_mean is not None:
                ves = repr(summary.ves_mean)
            writer.writerow([summary.run_id, summary.config_fingerprint, summary.scheme, label,
                             *astuple(counts), ves])
        return buffer.getvalue()
    if fmt == STRUCTURED:
        payload = {
            "run_id": summary.run_id,
            "config_fingerprint": summary.config_fingerprint,
            "scheme": summary.scheme,
            "buckets": {
                label: {**asdict(c), "em_rate": format_rate(c.em_rate()),
                        "ex_rate": format_rate(c.ex_rate())}
                for label, c in summary.buckets.items()
            },
            "ves_mean": summary.ves_mean,
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def render_delta(report: DeltaReport, fmt: str = PLAIN) -> str:
    em = {label: format_rate(delta, signed=True) for label, delta in report.em_deltas.items()}
    ex = {label: format_rate(delta, signed=True) for label, delta in report.ex_deltas.items()}
    if fmt == PLAIN:
        lines = [
            f"base: {report.base_run}",
            f"target: {report.target_run}",
            *_plain_table(em, {"em": list(em.values()), "ex": list(ex.values())}),
        ]
        return "\n".join(lines) + "\n"
    if fmt == STRUCTURED:
        payload = {
            "base_run": report.base_run,
            "target_run": report.target_run,
            "scheme": report.scheme,
            "em_deltas": em,
            "ex_deltas": ex,
        }
        return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")

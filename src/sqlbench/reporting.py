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


def _buckets(scheme: str) -> dict[str, BucketCounts]:
    """Empty counts for the scheme's labels in order, then ``OVERALL``."""
    return {label: BucketCounts() for label in (*SCHEME_LABELS[scheme], OVERALL)}


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
    """Reduce records into per-bucket and overall counts.

    Rates are stored exactly as correct/scored counts; rendering rounds to
    three decimals. The VES mean covers every record whose execution verdict
    was computed, counting incorrect predictions as zero efficiency.
    """
    buckets = _buckets(scheme)
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


def parse_summary_csv(text: str) -> RunSummary:
    """Inverse of the CSV rendering, at full precision. Text that is not a
    summary CSV raises ValueError: a column missing, an unknown scheme, an
    unknown or repeated bucket, a row of another run, fingerprint or scheme
    than the first, a count that is not an integer, counts outside
    ``0 <= correct <= scored <= n``, a VES mean on a label row, a missing
    bucket, or an overall row that is not the sum of the label rows."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [name for name in _CSV_COLUMNS if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"not a summary csv: missing columns {missing}")
    rows = list(reader)
    if not rows:
        raise ValueError("empty summary csv")
    first = rows[0]
    scheme = first["scheme"]
    if scheme not in SCHEME_LABELS:
        raise ValueError(f"unknown difficulty scheme {scheme!r}")
    summary = RunSummary(
        run_id=first["run_id"],
        scheme=scheme,
        buckets=_buckets(scheme),
        ves_mean=None,
        config_fingerprint=first["config_fingerprint"],
    )
    seen = set()
    for row in rows:
        bucket = row["bucket"]
        if bucket not in summary.buckets:
            raise ValueError(f"unknown bucket {bucket!r} for scheme {scheme}")
        if bucket in seen:
            raise ValueError(f"bucket {bucket!r} appears more than once")
        seen.add(bucket)
        for column in ("run_id", "config_fingerprint", "scheme"):
            if row[column] != first[column]:
                raise ValueError(f"bucket {bucket!r}: {column} {row[column]!r}"
                                 f" differs from the first row's {first[column]!r}")
        try:
            c = BucketCounts(*(int(row[name]) for name in _COUNT_COLUMNS))
        except (TypeError, ValueError):
            raise ValueError(f"bucket {bucket!r}: counts must be integers") from None
        if not (0 <= c.em_correct <= c.em_scored <= c.n
                and 0 <= c.ex_correct <= c.ex_scored <= c.n):
            raise ValueError(f"bucket {bucket!r}: counts break 0 <= correct <= scored <= n")
        summary.buckets[bucket] = c
        if row["ves_mean"]:
            if bucket != OVERALL:
                raise ValueError(f"bucket {bucket!r}: ves_mean is written on the overall row")
            summary.ves_mean = float(row["ves_mean"])
    missing = [label for label in summary.buckets if label not in seen]
    if missing:
        raise ValueError(f"missing buckets {missing}")
    *labels, overall = summary.buckets.values()
    if BucketCounts(*map(sum, zip(*map(astuple, labels)))) != overall:
        raise ValueError(f"bucket {OVERALL!r}: counts are not the sum of the label rows")
    return summary


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

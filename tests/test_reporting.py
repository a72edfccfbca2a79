from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.datasets import DifficultyLabel
from sqlbench.metrics import EvalRecord
from sqlbench.reporting import (
    CSV,
    OVERALL,
    PLAIN,
    STRUCTURED,
    BucketCounts,
    RunSummary,
    compare,
    format_rate,
    parse_summary_csv,
    render_delta,
    render_summary,
    summarize,
)

SPIDER = ("easy", "medium", "hard", "extra")


def synthetic_records(bucket_counts: dict[str, tuple[int, int]]) -> list[EvalRecord]:
    """bucket -> (n, correct): records with ex = em = correctness."""
    records = []
    index = 0
    for label, (n, correct) in bucket_counts.items():
        for i in range(n):
            verdict = i < correct
            records.append(
                EvalRecord(index, verdict, verdict, None,
                           DifficultyLabel("spider4", label), None)
            )
            index += 1
    return records


def graded_bucket_records() -> list[EvalRecord]:
    return synthetic_records(
        {"easy": (10, 9), "medium": (10, 7), "hard": (10, 5), "extra": (10, 3)}
    )


def test_bucket_rates_and_overall():
    summary = summarize(graded_bucket_records(), "run-a", "cafe")
    rates = [summary.buckets[label].ex_rate() for label in SPIDER]
    assert rates == [Fraction(9, 10), Fraction(7, 10), Fraction(5, 10), Fraction(3, 10)]
    assert summary.buckets[OVERALL].ex_rate() == Fraction(24, 40) == Fraction(3, 5)
    assert [format_rate(r) for r in rates] == ["0.900", "0.700", "0.500", "0.300"]
    assert format_rate(summary.buckets[OVERALL].ex_rate()) == "0.600"


def test_aggregation_consistency():
    summary = summarize(graded_bucket_records(), "run-a", "cafe")
    assert list(summary.buckets) == [*SPIDER, OVERALL]
    labeled = [summary.buckets[label] for label in SPIDER]
    overall = summary.buckets[OVERALL]
    assert sum(c.n for c in labeled) == overall.n
    assert sum(c.ex_correct for c in labeled) == overall.ex_correct
    assert sum(c.em_correct for c in labeled) == overall.em_correct


def test_all_correct_rates_one():
    records = synthetic_records({label: (5, 5) for label in SPIDER})
    summary = summarize(records, "r", "f")
    for label in SPIDER:
        assert format_rate(summary.buckets[label].ex_rate()) == "1.000"


def test_zero_records_no_division_error():
    summary = summarize([], "empty", "f")
    assert summary.buckets[OVERALL].n == 0
    assert summary.buckets[OVERALL].ex_rate() is None
    rendered = render_summary(summary, PLAIN)
    assert "n/a" in rendered


def test_unlabeled_record_rejected():
    record = EvalRecord(0, True, True, None, None, None)
    with pytest.raises(ValueError, match="difficulty"):
        summarize([record], "r", "f")


def test_plain_table_layout():
    rendered = render_summary(summarize(graded_bucket_records(), "run-a", "cafe"), PLAIN)
    lines = rendered.splitlines()
    header = lines[2].split()
    assert header == ["metric", "Easy", "Medium", "Hard", "Extra", "Overall"]
    ex_line = [l for l in lines if l.startswith("ex")][0]
    assert ex_line.split()[1:] == ["0.900", "0.700", "0.500", "0.300", "0.600"]


def test_csv_roundtrip_exact():
    summary = summarize(graded_bucket_records(), "run-a", "cafe")
    summary.ves_mean = 1.2345678901234567
    parsed = parse_summary_csv(render_summary(summary, CSV))
    assert parsed == summary


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
        min_size=4, max_size=4,
    )
)
def test_csv_roundtrip_randomized(cells):
    buckets = {}
    for label, (n_extra, em_c, ex_c) in zip(SPIDER, cells):
        n = n_extra + max(em_c, ex_c)  # keep correct <= scored
        buckets[label] = BucketCounts(n=n, em_scored=n, em_correct=em_c, ex_scored=n,
                                      ex_correct=ex_c)
    buckets[OVERALL] = BucketCounts(*(sum(getattr(c, name) for c in buckets.values())
                                      for name in ("n", "em_scored", "em_correct", "ex_scored",
                                                   "ex_correct")))
    summary = RunSummary(
        run_id="rand", scheme="spider4", buckets=buckets, ves_mean=None, config_fingerprint="fp",
    )
    assert parse_summary_csv(render_summary(summary, CSV)) == summary


_HEADER = ("run_id,config_fingerprint,scheme,bucket,n,em_scored,em_correct,"
           "ex_scored,ex_correct,ves_mean\n")
_LABEL_ROWS = ("r,f,spider4,easy,1,1,1,1,1,\nr,f,spider4,medium,0,0,0,0,0,\n"
               "r,f,spider4,hard,0,0,0,0,0,\nr,f,spider4,extra,0,0,0,0,0,\n")


@pytest.mark.parametrize("text, named", [
    ("a,b\n1,2\n", "missing columns"),
    (_HEADER + "r,f,spider5,overall,1,1,1,1,1,\n", "unknown difficulty scheme"),
    (_HEADER + "r,f,spider4,simple,1,1,1,1,1,\n", "unknown bucket 'simple'"),
    (_HEADER + "r,f,spider4,easy,1,1,one,1,1,\n", "counts must be integers"),
    (_HEADER + "r,f,spider4,easy,1,1\n", "counts must be integers"),
    (_HEADER + "r,f,spider4,easy,1,1,1,1,1,\nr,f,spider4,easy,1,1,0,1,0,\n", "more than once"),
    (_HEADER + "r,f,spider4,overall,1,1,3,1,1,\n", "correct <= scored"),
    (_HEADER + "r,f,spider4,hard,1,1,0,1,2,\n", "correct <= scored"),
    (_HEADER + "r,f,spider4,easy,1,2,0,1,1,\n", "scored <= n"),
    (_HEADER + "r,f,spider4,easy,-1,0,0,0,0,\n", "0 <= correct"),
    (_HEADER + _LABEL_ROWS + "q,f,bird3,overall,1,1,1,1,1,\n", "run_id 'q' differs"),
    (_HEADER + _LABEL_ROWS + "r,g,spider4,overall,1,1,1,1,1,\n", "config_fingerprint 'g'"),
    (_HEADER + _LABEL_ROWS + "r,f,bird3,overall,1,1,1,1,1,\n", "scheme 'bird3' differs"),
    (_HEADER + "r,f,spider4,easy,1,1,1,1,1,0.5\n", "ves_mean is written on the overall row"),
    (_HEADER + "r,f,spider4,overall,1,1,1,1,1,\n", "missing buckets"),
    (_HEADER + _LABEL_ROWS + "r,f,spider4,overall,10,10,0,10,0,\n", "not the sum"),
], ids=["columns", "scheme", "bucket", "count", "short-row", "repeated-bucket",
        "em-correct-over-scored", "ex-correct-over-scored", "scored-over-n", "negative",
        "other-run", "other-fingerprint", "other-scheme", "ves-on-label-row",
        "only-overall", "overall-not-sum"])
def test_parse_summary_csv_refuses_what_is_not_a_summary(text, named):
    with pytest.raises(ValueError, match=named):
        parse_summary_csv(text)


def test_compare_zero_on_identical():
    summary = summarize(graded_bucket_records(), "run-a", "cafe")
    report = compare(summary, summary)
    assert all(delta == 0 for delta in report.ex_deltas.values())
    assert all(delta == 0 for delta in report.em_deltas.values())


def test_compare_base_vs_tuned_delta():
    """Base overall EX 0.000 vs tuned 0.626 reproduces +0.626 exactly."""
    base = summarize(
        synthetic_records({label: (250, 0) for label in SPIDER}), "base", "f"
    )
    target = summarize(
        synthetic_records(
            {"easy": (250, 222), "medium": (250, 160), "hard": (250, 122), "extra": (250, 122)}
        ),
        "lora", "f",
    )
    report = compare(base, target)
    assert report.ex_deltas["overall"] == Fraction(626, 1000)
    assert format_rate(report.ex_deltas["overall"], signed=True) == "+0.626"


def test_compare_antisymmetric():
    a = summarize(graded_bucket_records(), "a", "f")
    b = summarize(
        synthetic_records({"easy": (10, 5), "medium": (10, 5), "hard": (10, 5), "extra": (10, 5)}),
        "b", "f",
    )
    forward, backward = compare(a, b), compare(b, a)
    for label in list(SPIDER) + ["overall"]:
        assert forward.ex_deltas[label] == -backward.ex_deltas[label]


def test_compare_scheme_mismatch():
    spider = summarize(graded_bucket_records(), "a", "f")
    bird = RunSummary(
        run_id="b", scheme="bird3",
        buckets={l: BucketCounts() for l in ("simple", "moderate", "challenge", OVERALL)},
        ves_mean=None, config_fingerprint="f",
    )
    with pytest.raises(ValueError, match="scheme"):
        compare(spider, bird)


def test_render_delta_plain():
    a = summarize(graded_bucket_records(), "a", "f")
    report = compare(a, a)
    rendered = render_delta(report, PLAIN)
    assert "+0.000" in rendered
    assert rendered.splitlines()[2].split()[-1] == "Overall"


def test_rounding_half_up():
    assert format_rate(Fraction(1, 8)) == "0.125"
    assert format_rate(Fraction(5, 10000)) == "0.001"  # 0.0005 rounds up
    assert format_rate(Fraction(25, 10000)) == "0.003"  # 0.0025 rounds up
    assert format_rate(None) == "n/a"


def test_structured_render_includes_fingerprint():
    rendered = render_summary(summarize(graded_bucket_records(), "run-a", "deadbeef"), STRUCTURED)
    assert '"config_fingerprint": "deadbeef"' in rendered


def test_ves_mean_over_scored_records():
    records = [
        EvalRecord(0, True, True, 1.5, DifficultyLabel("spider4", "easy"), None),
        EvalRecord(1, True, False, None, DifficultyLabel("spider4", "easy"), None),
    ]
    summary = summarize(records, "r", "f")
    assert summary.ves_mean == pytest.approx(0.75)  # incorrect counts as zero


def _pinned_records(scheme: str, rows: list[tuple]) -> list[EvalRecord]:
    """(label, em, ex, ves_ratio) rows as records, indexed in order."""
    return [
        EvalRecord(i, em, ex, ves, DifficultyLabel(scheme, label), None)
        for i, (label, em, ex, ves) in enumerate(rows)
    ]


# a fixed record set per scheme, each with a VES mean; one bucket of each has
# no EM verdict and one BIRD bucket holds no record at all
PINNED_SPIDER = _pinned_records("spider4", [
    ("easy", True, True, 1.25), ("easy", True, True, 0.5), ("easy", False, True, 2.0),
    ("medium", True, False, 0.75), ("medium", False, False, None),
    ("medium", True, True, 1.0), ("hard", False, True, 0.3333333333333333),
    ("hard", None, None, None), ("extra", None, True, 4.0), ("extra", None, False, 1.5),
])
PINNED_BIRD = _pinned_records("bird3", [
    ("simple", True, True, 1.1), ("simple", False, True, 0.9), ("simple", True, False, 2.5),
    ("moderate", None, True, 0.6), ("moderate", False, None, None),
])
PINNED_TARGET = _pinned_records("spider4", [
    ("easy", True, True, None), ("easy", False, False, None), ("medium", True, True, None),
    ("hard", True, True, None), ("hard", True, False, None), ("extra", False, False, None),
])


def _pinned_summaries() -> dict[str, RunSummary]:
    return {
        "spider4": summarize(PINNED_SPIDER, "run-spider", "0123456789ab"),
        "bird3": summarize(PINNED_BIRD, "run-bird", "ba9876543210", scheme="bird3"),
    }


@pytest.mark.parametrize("scheme", ["spider4", "bird3"])
@pytest.mark.parametrize("fmt, suffix", [(PLAIN, "txt"), (CSV, "csv"), (STRUCTURED, "json")])
def test_summary_report_matches_golden(fixtures_dir, scheme, fmt, suffix):
    rendered = render_summary(_pinned_summaries()[scheme], fmt)
    path = fixtures_dir / "golden" / f"summary_{scheme}.{suffix}"
    assert rendered == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt, suffix", [(PLAIN, "txt"), (STRUCTURED, "json")])
def test_delta_report_matches_golden(fixtures_dir, fmt, suffix):
    target = summarize(PINNED_TARGET, "run-target", "0123456789ab")
    rendered = render_delta(compare(_pinned_summaries()["spider4"], target), fmt)
    assert rendered == (fixtures_dir / "golden" / f"delta_spider4.{suffix}").read_text(
        encoding="utf-8")

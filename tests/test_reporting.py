from __future__ import annotations

from fractions import Fraction

import pytest

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
    compare_records,
    format_rate,
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


def test_unlabeled_record_left_out():
    """A record without a difficulty label counts in no bucket; a label of
    another scheme is still refused."""
    labeled = EvalRecord(0, True, False, None, DifficultyLabel("spider4", "easy"), None)
    unlabeled = EvalRecord(1, True, True, 1.0, None, None)
    assert summarize([unlabeled, labeled], "r", "f") == summarize([labeled], "r", "f")
    assert summarize([unlabeled], "r", "f").buckets[OVERALL].n == 0
    with pytest.raises(ValueError, match="scheme"):
        summarize([unlabeled, labeled], "r", "f", scheme="bird3")


def test_plain_table_layout():
    rendered = render_summary(summarize(graded_bucket_records(), "run-a", "cafe"), PLAIN)
    lines = rendered.splitlines()
    header = lines[2].split()
    assert header == ["metric", "Easy", "Medium", "Hard", "Extra", "Overall"]
    ex_line = [l for l in lines if l.startswith("ex")][0]
    assert ex_line.split()[1:] == ["0.900", "0.700", "0.500", "0.300", "0.600"]


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


def test_compare_records_summarizes_each_run_as_evaluate_does():
    """The labeled records of each run, under their scheme: the same report
    as ``compare`` of the summaries ``evaluate`` derives from them."""
    unlabeled = EvalRecord(99, False, False, None, None, "gold-error")
    target = [EvalRecord(r.example_index, not r.em, True, None, r.difficulty, None)
              for r in PINNED_SPIDER]
    report = compare_records([*PINNED_SPIDER, unlabeled], [unlabeled, *target], "a", "b")
    assert report == compare(summarize(PINNED_SPIDER, "a", ""), summarize(target, "b", ""))
    bird = compare_records(PINNED_BIRD, PINNED_BIRD, "a", "a")
    assert bird.scheme == "bird3" and set(bird.ex_deltas.values()) == {0, None}


@pytest.mark.parametrize("target, named", [
    (PINNED_SPIDER[:-1], "a and b score different examples: 1 only in the first, 0 only"),
    ([*PINNED_SPIDER, EvalRecord(10, True, True, None, None, None)], "0 only in the first, 1"),
    ([EvalRecord(r.example_index, r.em, r.ex, None, DifficultyLabel("bird3", "simple"), None)
      for r in PINNED_SPIDER], "example 0 is easy in a but simple in b"),
    ([*PINNED_SPIDER[:-1], EvalRecord(9, None, False, None, None, None)],
     "example 9 is extra in a but unlabeled in b"),
], ids=["fewer", "more", "other-scheme", "other-label"])
def test_compare_records_refuses_runs_of_other_examples(target, named):
    with pytest.raises(ValueError) as exc_info:
        compare_records(PINNED_SPIDER, target, "a", "b")
    assert named in str(exc_info.value)
    with pytest.raises(ValueError):
        compare_records(target, PINNED_SPIDER, "b", "a")


def test_compare_records_refuses_runs_with_no_label():
    unlabeled = [EvalRecord(0, True, True, None, None, None)]
    with pytest.raises(ValueError, match="no example of a or b carries a difficulty label"):
        compare_records(unlabeled, unlabeled, "a", "b")
    with pytest.raises(ValueError, match="no example"):
        compare_records([], [], "a", "b")

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.sqlkit import (
    SqlParseError,
    classify_difficulty,
    clause_signature,
    component_counts,
    em_match,
    parse_sql,
)

from helpers import canon


@pytest.fixture(scope="module")
def schemas(bundle):
    return bundle.schemas


def test_distinct_where_decomposition(schemas):
    unit = parse_sql("SELECT DISTINCT country FROM singer WHERE age > 20",
                     schemas["concert_singer"])
    assert unit.select_distinct
    assert unit.select_items == ("singer.country",)
    assert unit.from_tables == ("singer",)
    assert len(unit.where_preds) == 1
    pred = unit.where_preds[0]
    assert (pred.lhs, pred.op, pred.value.kind) == ("singer.age", ">", "masked")


def test_alias_resolution_across_join(schemas):
    unit = parse_sql(
        "SELECT T1.title FROM course AS T1 JOIN prereq AS T2 ON"
        " T1.course_id = T2.course_id GROUP BY T2.course_id HAVING count(*) = 2",
        schemas["college_2"],
    )
    assert unit.select_items == ("course.title",)
    assert unit.from_tables == ("course", "prereq")
    assert unit.group_by == ("prereq.course_id",)
    having = unit.having_preds[0]
    assert (having.lhs, having.op, having.value.kind) == ("count(*)", "=", "masked")


def test_parse_determinism(schemas):
    sql = "SELECT name , age FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3"
    a = parse_sql(sql, schemas["concert_singer"])
    b = parse_sql(sql, schemas["concert_singer"])
    assert a == b
    assert clause_signature(a) == clause_signature(b)


def test_canonicalization_idempotent(schemas):
    for sql in [
        "SELECT name FROM singer WHERE age > 20 OR country = 'France'",
        "SELECT country FROM singer GROUP BY country HAVING count(*) > 1",
        "SELECT name FROM singer UNION SELECT name FROM stadium",
        "SELECT song_name FROM singer WHERE age > (SELECT avg(age) FROM singer)",
    ]:
        unit = parse_sql(sql, schemas["concert_singer"])
        assert canon(unit) == unit
        assert canon(canon(unit)) == canon(unit)


def test_parse_failures_carry_position_and_reason(schemas):
    schema = schemas["concert_singer"]
    with pytest.raises(SqlParseError):
        parse_sql("", schema)
    with pytest.raises(SqlParseError) as err:
        parse_sql("SELECT name FROM singer WHERE (age > 20", schema)
    assert err.value.pos >= 0
    with pytest.raises(SqlParseError, match="EXISTS"):
        parse_sql("SELECT name FROM singer WHERE EXISTS (SELECT 1)", schema)
    with pytest.raises(SqlParseError):
        parse_sql("SELECT CASE WHEN age > 20 THEN 1 ELSE 0 END FROM singer", schema)
    with pytest.raises(SqlParseError, match="string"):
        parse_sql("SELECT name FROM singer WHERE country = 'unterminated", schema)


def test_parser_never_escapes_structured_failure(schemas):
    # hostile inputs must produce SqlParseError, never other exceptions
    schema = schemas["concert_singer"]
    hostile = [
        "garbage text", ";;;", "(((((", "SELECT", "SELECT FROM", "SELECT ; name",
        "WITH t AS (SELECT 1) SELECT * FROM t",  # CTEs are outside the subset
        "SELECT name FROM singer LIMIT 1 OFFSET 2",
        "SELECT name FROM singer ORDER BY",
        "SELECT * FROM singer WHERE" , "\x00\x01", "'" , "/*",
        "SELECT " + "(" * 60 + "1",
        "SELECT name FROM (" * 50 + "singer" + ")" * 50,
    ]
    for sql in hostile:
        with pytest.raises(SqlParseError):
            parse_sql(sql, schema)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_parser_total_over_arbitrary_text(text):
    from sqlbench.datasets import DatabaseSchema, TableDef

    schema = DatabaseSchema(
        db_id="t",
        tables=(TableDef(name="t", columns=("a",)),),
        primary_keys=(),
        foreign_keys=(),
    )
    try:
        parse_sql(text, schema)
    except SqlParseError:
        pass  # the only acceptable failure mode


class TestEmConformance:
    """The committed hand-derived clause-decomposition oracle."""

    def test_all_pairs_agree(self, schemas, fixtures_dir):
        pairs = json.loads((fixtures_dir / "em_pairs.json").read_text())["pairs"]
        assert len(pairs) >= 50
        failures = []
        for pair in pairs:
            schema = schemas[pair["db"]]
            gold = parse_sql(pair["gold"], schema)
            try:
                pred = parse_sql(pair["pred"], schema)
                got = em_match(pred, gold)
            except SqlParseError:
                got = False
            if got != pair["match"]:
                failures.append(f"pair {pair['id']}: got {got}, note: {pair['note']}")
        assert not failures, "\n".join(failures)


def test_em_reflexive_and_symmetric(schemas, fixtures_dir):
    pairs = json.loads((fixtures_dir / "em_pairs.json").read_text())["pairs"]
    for pair in pairs[:20]:
        schema = schemas[pair["db"]]
        gold = parse_sql(pair["gold"], schema)
        assert em_match(gold, gold)
        try:
            pred = parse_sql(pair["pred"], schema)
        except SqlParseError:
            continue
        assert em_match(pred, gold) == em_match(gold, pred)


_LITERAL_SWAPS = [
    ("20", "987"), ("'France'", "'Atlantis'"), ("'%Hey%'", "'%zz%'"), ("2", "40"),
]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(_LITERAL_SWAPS), st.integers(0, 3))
def test_literal_invariance(swap, which):
    """Replacing any literal constant never changes em_match."""
    from sqlbench.datasets import DatasetSource, load_bundle
    from pathlib import Path

    tables = Path(__file__).parent / "fixtures" / "spider" / "tables.json"
    schemas = load_bundle(DatasetSource("spider-fixture", "spider", tables)).schemas
    base_queries = [
        "SELECT name FROM singer WHERE age > 20",
        "SELECT name FROM singer WHERE country = 'France' AND age > 20",
        "SELECT name FROM singer WHERE song_name LIKE '%Hey%'",
        "SELECT country FROM singer GROUP BY country HAVING count(*) >= 2",
    ]
    sql = base_queries[which]
    old, new = swap
    mutated = sql.replace(old, new)
    schema = schemas["concert_singer"]
    assert em_match(parse_sql(mutated, schema), parse_sql(sql, schema))


def test_em_sensitive_to_order_direction_and_distinct(schemas):
    schema = schemas["concert_singer"]
    assert not em_match(
        parse_sql("SELECT name FROM singer ORDER BY age DESC", schema),
        parse_sql("SELECT name FROM singer ORDER BY age", schema),
    )
    assert not em_match(
        parse_sql("SELECT DISTINCT name FROM singer", schema),
        parse_sql("SELECT name FROM singer", schema),
    )


class TestHardness:
    def test_pinned_forty_query_set(self, schemas, fixtures_dir):
        rows = json.loads((fixtures_dir / "hardness_pinned.json").read_text())["queries"]
        assert len(rows) == 40
        failures = []
        seen_labels = set()
        for row in rows:
            unit = parse_sql(row["query"], schemas[row["db"]])
            comp1, comp2, others = component_counts(unit)
            label = classify_difficulty(unit).label
            seen_labels.add(label)
            if (comp1, comp2, others, label) != (
                row["comp1"], row["comp2"], row["others"], row["label"],
            ):
                failures.append(
                    f"id {row['id']}: got ({comp1},{comp2},{others},{label}),"
                    f" pinned ({row['comp1']},{row['comp2']},{row['others']},{row['label']})"
                )
        assert not failures, "\n".join(failures)
        assert seen_labels == {"easy", "medium", "hard", "extra"}

    def test_bucket_counts_sum_to_split_size(self, bundle):
        from collections import Counter

        labels = [
            classify_difficulty(parse_sql(ex.gold_sql, bundle.schemas[ex.db_id])).label
            for ex in bundle.splits["dev"]
        ]
        counts = Counter(labels)
        assert sum(counts.values()) == len(bundle.splits["dev"])

    def test_purity_under_formatting_and_literals(self, schemas):
        schema = schemas["concert_singer"]
        variants = [
            "SELECT name FROM singer WHERE age > 20",
            "select NAME from SINGER where AGE > 12345",
            "  SELECT   name\nFROM singer\nWHERE age > 7  ",
        ]
        labels = {classify_difficulty(parse_sql(v, schema)).label for v in variants}
        assert labels == {"easy"}


def test_select_alias_resolution_in_order_and_having(schemas):
    schema = schemas["concert_singer"]
    aliased = parse_sql(
        "SELECT country , count(*) AS n FROM singer GROUP BY country"
        " HAVING n > 1 ORDER BY n DESC",
        schema,
    )
    spelled = parse_sql(
        "SELECT country , count(*) FROM singer GROUP BY country"
        " HAVING count(*) > 1 ORDER BY count(*) DESC",
        schema,
    )
    assert em_match(aliased, spelled)

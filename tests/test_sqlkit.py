from __future__ import annotations

import json
import random
import subprocess
import sys

import pytest
import sql_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlbench.datasets import DatabaseSchema, TableDef
from sqlbench.sqlkit import SqlParseError, classify_difficulty, em_match, parse_sql
from sqlbench.sqlkit import parser as sql_parser


@pytest.fixture(scope="module")
def schemas(bundle):
    return bundle.schemas


def test_distinct_where_decomposition(schemas):
    unit = parse_sql("SELECT DISTINCT country FROM singer WHERE age > 20",
                     schemas["concert_singer"])
    assert unit.signature == "select distinct{singer.country} from{singer} where[]{singer.age > ?}"


def test_alias_resolution_across_join(schemas):
    unit = parse_sql(
        "SELECT T1.title FROM course AS T1 JOIN prereq AS T2 ON"
        " T1.course_id = T2.course_id GROUP BY T2.course_id HAVING count(*) = 2",
        schemas["college_2"],
    )
    assert unit.signature == (
        "select{course.title} from{course|prereq} on{course.course_id = prereq.course_id}"
        " group{prereq.course_id} having[]{count(*) = ?}"
    )


def test_parse_determinism(schemas):
    sql = "SELECT name , age FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3"
    assert parse_sql(sql, schemas["concert_singer"]) == parse_sql(sql, schemas["concert_singer"])


def test_reordered_clauses_give_one_signature(schemas):
    schema = schemas["college_2"]
    variants = [
        "SELECT T1.title , T2.prereq_id FROM course AS T1 JOIN prereq AS T2"
        " ON T1.course_id = T2.course_id WHERE T1.credits > 3 AND T1.dept_name = 'Math'"
        " GROUP BY T1.title , T2.prereq_id",
        "SELECT T2.prereq_id , T1.title FROM prereq AS T2 JOIN course AS T1"
        " ON T2.course_id = T1.course_id WHERE T1.dept_name = 'Physics' AND T1.credits > 4"
        " GROUP BY T2.prereq_id , T1.title",
    ]
    units = [parse_sql(sql, schema) for sql in variants]
    assert units[0] == units[1]
    assert units[0].signature == (
        "select{course.title|prereq.prereq_id} from{course|prereq}"
        " on{course.course_id = prereq.course_id}"
        " where[and]{course.credits > ?|course.dept_name = ?}"
        " group{course.title|prereq.prereq_id}"
    )


def test_golden_parses(schemas, bird_bundle, fixtures_dir):
    """Every fixture SQL string and two seeded token mutations of each parse
    to the pinned signature, hardness counts and label, or fail with the
    pinned reason at the pinned position."""
    all_schemas = {**schemas, **bird_bundle.schemas}
    rows = [json.loads(line) for line in
            (fixtures_dir / "golden" / "sql_parses.jsonl").read_text("utf-8").splitlines()]
    assert len(rows) > 500
    failures = []
    for row in rows:
        try:
            unit = parse_sql(row["sql"], all_schemas[row["db"]])
        except SqlParseError as exc:
            got = {"reason": exc.reason, "pos": exc.pos}
        else:
            got = {"signature": unit.signature, "components": list(unit.components),
                   "label": classify_difficulty(unit).label}
        want = {k: v for k, v in row.items() if k not in ("db", "sql")}
        if got != want:
            failures.append(f"{row['sql']!r}: got {got}, pinned {want}")
    assert not failures, "\n".join(failures[:20])


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


_TINY_SCHEMA = DatabaseSchema(
    db_id="t", tables=(TableDef(name="t", columns=("a",)),), primary_keys=(), foreign_keys=(),
)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_parser_total_over_arbitrary_text(text):
    """SqlParseError is the only failure, and the outcome is the oracle's."""
    assert_same_as_oracle(text, _TINY_SCHEMA)


# --- the scanner and parser against tests/sql_oracle.py -------------------


def _outcome(module, sql: str, schema) -> tuple:
    try:
        unit = module.parse_sql(sql, schema)
    except module.SqlParseError as exc:
        return ("error", exc.reason, exc.pos)
    return (unit.signature, tuple(unit.components))


def _tokens(sql: str) -> tuple:
    """(kinds, texts) from both scanners, or their lexical errors."""
    try:
        new = sql_parser.tokenize(sql)
    except SqlParseError as exc:
        new = ("error", exc.reason, exc.pos)
    try:
        toks = sql_oracle.tokenize(sql)
        old = ([t.kind for t in toks], [t.text for t in toks])
    except sql_oracle.SqlParseError as exc:
        old = ("error", exc.reason, exc.pos)
    return new, old


def assert_same_as_oracle(sql: str, schema) -> None:
    """The same (signature, components) or (reason, pos), and the same tokens."""
    assert _outcome(sql_parser, sql, schema) == _outcome(sql_oracle, sql, schema), repr(sql)
    new, old = _tokens(sql)
    assert new == old, repr(sql)


@pytest.fixture(scope="module")
def fixture_sql(fixtures_dir) -> list[tuple[str, str]]:
    """(db_id, sql) for every SQL string among the fixtures (spider train and
    dev, bird dev, both sides of em_pairs, hardness_pinned) and two seeded
    token mutations of each: the strings the golden parse file pins."""
    golden = (fixtures_dir / "golden" / "sql_parses.jsonl").read_text("utf-8").splitlines()
    return [(row["db"], row["sql"]) for row in map(json.loads, golden)]


# what the regex scanner leaves to the character loop, and what borders it
_EDIT_ALPHABET = ("'", '"', "''", "`", "[", "]", "--", "/*", "*/", ".", ".5", "0", "7", "e",
                  "E", "e+", "<>", "<", ">", "!", "\n", " ", "_", "é", "İ", "٣", "²",
                  "\u00a0", "\u3000", "\x1c", "\x0b", "\x00")


def _edit(sql: str, edits) -> str:
    for insert, at, piece in edits:
        at %= len(sql) + 1
        sql = sql[:at] + piece + sql[at:] if insert else sql[:at] + sql[at + len(piece):]
    return sql


def test_parser_matches_oracle_on_fixture_sql_and_seeded_edits(schemas, bird_bundle, fixture_sql):
    all_schemas = {**schemas, **bird_bundle.schemas}
    assert len(fixture_sql) > 500
    rng = random.Random(15)
    edited = []
    for _ in range(3000):
        db, sql = rng.choice(fixture_sql)
        edits = [(rng.random() < 0.6, rng.randrange(len(sql) + 1), rng.choice(_EDIT_ALPHABET))
                 for _ in range(rng.randint(1, 3))]
        edited.append((db, _edit(sql, edits)))
    for db, sql in fixture_sql + edited:
        assert_same_as_oracle(sql, all_schemas[db])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parser_matches_oracle_under_edits(schemas, bird_bundle, fixture_sql, data):
    db, sql = data.draw(st.sampled_from(fixture_sql))
    edits = data.draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 400), st.sampled_from(_EDIT_ALPHABET)),
        min_size=1, max_size=4,
    ))
    assert_same_as_oracle(_edit(sql, edits), {**schemas, **bird_bundle.schemas}[db])


def _at_depth(frames: int, call):
    return call() if frames == 0 else _at_depth(frames - 1, call)


@pytest.mark.parametrize("sql, parses", [
    ("SELECT " + "(" * 39 + "1" + ")" * 39, True),  # 40 levels with the query itself
    ("SELECT " + "(" * 40 + "1" + ")" * 40, False),
    ("SELECT " + "(" * 450 + "1" + ")" * 450, False),
    ("SELECT a FROM t WHERE " + "(" * 450 + "a = 1" + ")" * 450, False),
    ("SELECT " + "count(" * 450 + "a" + ")" * 450 + " FROM t", False),
    ("SELECT " + " + ".join(["a"] * 900) + " FROM t", True),
    ("SELECT a FROM t WHERE a = " + " + ".join(["1"] * 900), True),
], ids=["39-parens", "40-parens", "450-parens", "450-condition-groups", "450-aggregates",
        "900-term-chain", "900-term-value"])
def test_expression_nesting_is_bounded_by_the_sql_alone(sql, parses):
    """Parenthesized expressions, conditions and aggregate arguments count
    toward the nesting bound, and an operator chain of any length is no
    nesting, so a parse ends the same way however deep in the stack it is
    called."""
    top = _outcome(sql_parser, sql, _TINY_SCHEMA)
    assert _at_depth(100, lambda: _outcome(sql_parser, sql, _TINY_SCHEMA)) == top
    assert (top[0] != "error") == parses
    if not parses:
        assert top[1] == "expression nesting too deep"


def test_long_runs_scan_in_linear_time():
    """Runs of 20,000 characters before a character the regex does not take.
    A scanner that retries such a run from each of its characters is
    quadratic and takes several seconds per string here; these take
    milliseconds."""
    script = (
        "import sys\n"
        f"sys.path[:0] = {sys.path!r}\n"
        "import test_sqlkit as t\n"
        "for sql in ('SELECT ' + 'a' * 20000 + 'é', 'SELECT ' + '9' * 20000 + 'é',\n"
        "            'SELECT ' + '9' * 20000 + '.' + '9' * 20000 + 'e',\n"
        "            \"SELECT '\" + \"''\" * 10000, 'SELECT 1' + ' ' * 20000 + '[',\n"
        "            'SELECT ' + 'a' * 20000 + '[', 'SELECT ' + '-' * 20000):\n"
        "    t.assert_same_as_oracle(sql, t._TINY_SCHEMA)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=10)
    assert done.returncode == 0, done.stderr


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
            comp1, comp2, others = unit.components
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

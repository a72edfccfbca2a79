from __future__ import annotations

import dataclasses
import json

import pytest

from sqlbench.datasets import (
    DatasetError,
    DatasetSource,
    ExampleTriple,
    discover_db_files,
    load_bundle,
    validate_dataset,
)


def load_catalog(tables):
    return load_bundle(DatasetSource("x", "spider", tables))


def load_split(fixtures_dir, records, tmp_path, dialect: str = "spider"):
    split = tmp_path / "split.json"
    split.write_text(json.dumps(records), encoding="utf-8")
    tables = fixtures_dir / dialect / "tables.json"
    return load_bundle(DatasetSource("x", dialect, tables, {"dev": split})).splits["dev"]


def test_concert_singer_catalog_entry(bundle):
    schema = bundle.schemas["concert_singer"]
    assert [t.name for t in schema.tables] == [
        "stadium", "singer", "concert", "singer_in_concert",
    ]
    assert len(schema.primary_keys) == 4
    assert len(schema.foreign_keys) == 3
    fk = schema.foreign_keys[0]
    assert (fk.child.table, fk.child.column) == ("concert", "Stadium_ID")
    assert (fk.parent.table, fk.parent.column) == ("stadium", "Stadium_ID")


def test_schema_lookups_fold_case(bundle):
    """`has_column` agrees with a scan of the declared tables."""
    schema = bundle.schemas["concert_singer"]
    for table in schema.tables:
        for name in (table.name, table.name.upper()):
            for column in table.columns:
                assert schema.has_column(name, column.swapcase())
            assert not schema.has_column(name, "no_such_column")
    assert not schema.has_column("no_such_table", "name")


def test_empty_catalog(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text("[]", encoding="utf-8")
    assert load_catalog(path).schemas == {}


def test_dangling_foreign_key_index(tmp_path, fixtures_dir):
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8"))
    entries[0]["foreign_keys"][0][0] = 99  # out of range
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_catalog(path)
    assert "concert_singer" in str(err.value)
    assert "99" in str(err.value)


def test_duplicate_db_id(tmp_path, fixtures_dir):
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8"))
    entries.append(entries[0])
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(DatasetError, match="duplicate"):
        load_catalog(path)


def test_load_examples_resolves_schema(bundle):
    first = bundle.splits["dev"][0]
    assert first.question == "How many singers do we have?"
    assert first.gold_sql == "SELECT count(*) FROM singer"
    assert first.db_id in bundle.schemas
    assert first.difficulty is None  # spider difficulty is computed, not ingested
    assert [ex.index for ex in bundle.splits["dev"]] == list(range(20))


def test_load_examples_empty(tmp_path, fixtures_dir):
    assert load_split(fixtures_dir, [], tmp_path) == []


def test_load_examples_unknown_db(tmp_path, fixtures_dir):
    records = [{"db_id": "nope", "question": "q", "query": "SELECT 1"}]
    with pytest.raises(DatasetError, match="record 0"):
        load_split(fixtures_dir, records, tmp_path)


def test_bird_examples_carry_evidence_and_difficulty(bird_bundle):
    rows = bird_bundle.splits["dev"]
    assert rows[0].evidence == "directed by refers to director_name;"
    assert rows[0].difficulty.scheme == "bird3"
    assert rows[0].difficulty.label == "simple"
    # "SQL" is accepted as the gold-query key for bird-style files
    assert rows[2].gold_sql.startswith("SELECT movie_url")


def test_bird_bad_difficulty_label(tmp_path, fixtures_dir):
    records = [{
        "db_id": "movie_platform", "question": "q",
        "query": "SELECT 1", "difficulty": "impossible",
    }]
    with pytest.raises(DatasetError, match="difficulty"):
        load_split(fixtures_dir, records, tmp_path, dialect="bird")


def test_bird_evidence_that_is_not_a_string(tmp_path, fixtures_dir):
    records = [{"db_id": "movie_platform", "question": "q", "SQL": "SELECT 1", "evidence": 5}]
    with pytest.raises(DatasetError, match="record 0: evidence must be a string"):
        load_split(fixtures_dir, records, tmp_path, dialect="bird")


@pytest.mark.parametrize("field, value", [
    *(("difficulty", value) for value in ({}, [], 0, False)),
    *(("evidence", value) for value in (0, [], {})),
])
def test_bird_falsy_label_that_is_not_a_string_is_a_record_error(tmp_path, fixtures_dir,
                                                                  field, value):
    records = [{"db_id": "movie_platform", "question": "q", "SQL": "SELECT 1", field: value}]
    problem = ("evidence must be a string" if field == "evidence"
               else f"difficulty {value!r} not in ('simple', 'moderate', 'challenge')")
    with pytest.raises(DatasetError) as err:
        load_split(fixtures_dir, records, tmp_path, dialect="bird")
    assert f"record 0: {problem}" in str(err.value)


@pytest.mark.parametrize("field, named", [("question", "question"), ("SQL", "SQL query"),
                                          ("evidence", "evidence")])
def test_bird_text_that_does_not_encode_to_utf8_is_a_record_error(tmp_path, fixtures_dir,
                                                                  field, named):
    """A lone surrogate is refused; other text beyond ASCII, astral too, loads."""
    good = {"db_id": "movie_platform", "question": "café 😀?", "SQL": "SELECT 'é'",
            "evidence": "naïve"}
    assert load_split(fixtures_dir, [good], tmp_path, dialect="bird")[0].question == "café 😀?"
    with pytest.raises(DatasetError) as err:
        load_split(fixtures_dir, [{**good, field: good[field] + "\ud800"}], tmp_path,
                   dialect="bird")
    assert str(err.value) == f"split dev: record 0: {named} does not encode to UTF-8"


def test_bird_null_absent_or_empty_label_is_none(tmp_path, fixtures_dir):
    records = [{"db_id": "movie_platform", "question": "q", "SQL": "SELECT 1", **fields}
               for fields in ({}, {"difficulty": None, "evidence": None},
                              {"difficulty": "", "evidence": ""})]
    rows = load_split(fixtures_dir, records, tmp_path, dialect="bird")
    assert [(row.difficulty, row.evidence) for row in rows] == [(None, None)] * 3


def test_referential_closure(bundle):
    for rows in bundle.splits.values():
        for example in rows:
            assert example.db_id in bundle.schemas


def test_db_files_are_found_only_in_their_own_folder(tmp_path):
    """``{db_dir}/{db_id}/{db_id}.sqlite`` is the one layout; a flat file is not read."""
    (tmp_path / "nested").mkdir()
    (tmp_path / "nested" / "nested.sqlite").write_bytes(b"")
    (tmp_path / "flat.sqlite").write_bytes(b"")
    found = discover_db_files(tmp_path, ["flat", "missing", "nested"])
    assert found == {"nested": tmp_path / "nested" / "nested.sqlite"}


def test_load_determinism(db_root, fixtures_dir):
    source = DatasetSource(
        name="spider-fixture",
        dialect="spider",
        tables=fixtures_dir / "spider" / "tables.json",
        splits={
            "train": fixtures_dir / "spider" / "train.json",
            "dev": fixtures_dir / "spider" / "dev.json",
        },
        db_dir=db_root,
    )
    a, b = load_bundle(source), load_bundle(source)
    assert json.dumps(a.manifest(), sort_keys=True) == json.dumps(b.manifest(), sort_keys=True)
    assert a.splits == b.splits
    assert a.schemas == b.schemas


def test_validate_dataset_collects_all_errors(tmp_path, fixtures_dir):
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8"))
    entries[0]["primary_keys"] = [999]
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(entries), encoding="utf-8")
    split = tmp_path / "dev.json"
    split.write_text(
        json.dumps([
            {"db_id": "college_2", "question": "ok", "query": "SELECT 1"},
            {"db_id": "ghost", "question": "q", "query": "SELECT 1"},
            {"db_id": "college_2", "question": "", "query": "SELECT 1"},
        ]),
        encoding="utf-8",
    )
    bundle, errors = validate_dataset(DatasetSource("x", "spider", tables, {"dev": split}))
    assert bundle is not None
    assert len(errors) == 3  # bad pk, unknown db, missing question
    assert len(bundle.splits["dev"]) == 1


def _fixture_source(fixtures_dir, tables=None, db_dir=None) -> DatasetSource:
    spider = fixtures_dir / "spider"
    return DatasetSource("x", "spider", tables or spider / "tables.json",
                         {"train": spider / "train.json", "dev": spider / "dev.json"}, db_dir)


def test_a_partial_load_builds_only_the_schemas_its_splits_name(tmp_path, fixtures_dir):
    """dev names concert_singer alone; train and a full load name both."""
    for db_id in ("concert_singer", "college_2"):
        (tmp_path / db_id).mkdir()
        (tmp_path / db_id / f"{db_id}.sqlite").write_bytes(b"")
    source = _fixture_source(fixtures_dir, db_dir=tmp_path)
    full = load_bundle(source)
    for splits in (("dev",), ("train",), ("dev", "train"), ()):
        bundle = load_bundle(source, splits=splits)
        named = {ex.db_id for split in splits for ex in full.splits[split]}
        assert set(bundle.splits) == set(splits)
        assert bundle.schemas == {db_id: full.schemas[db_id] for db_id in named}
        assert bundle.db_files == {db_id: full.db_files[db_id] for db_id in named}
    assert set(full.schemas) == set(full.db_files) == {"concert_singer", "college_2"}


def test_a_partial_load_reports_the_catalog_entries_it_builds(tmp_path, fixtures_dir):
    """A malformed entry no loaded record names is not built, and so not
    reported; one a record names is, once: its records add no line of their
    own. Every entry's db_id is checked."""
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text(encoding="utf-8"))
    entries[1]["primary_keys"] = [999]  # college_2, which only train names
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps(entries), encoding="utf-8")
    source = _fixture_source(fixtures_dir, tables)
    bad_pk = "catalog entry 1: college_2: primary key column index 999 out of range"
    assert set(load_bundle(source, splits=("dev",)).schemas) == {"concert_singer"}
    assert validate_dataset(source, splits=("train",))[1] == [bad_pk]
    with pytest.raises(DatasetError) as err:
        load_bundle(source)
    assert bad_pk in err.value.args
    for db_id, problem in ((7, "db_id must be a non-empty string"),
                           ("college_2\ud800", "name 'college_2\\ud800' does not encode to UTF-8"),
                           ("concert_singer", "duplicate db_id 'concert_singer'")):
        entries[1]["db_id"] = db_id
        tables.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            load_bundle(source, splits=("dev",))
        assert list(err.value.args) == [f"catalog entry 1: {problem}"]


@pytest.mark.parametrize("kwargs, message", [
    ({"dialect": "sparc"}, "dialect must be one of"),
    ({"splits": {"validation": "dev.json"}}, "unknown split name 'validation'"),
])
def test_dataset_source_rejects_unknown_dialect_and_split(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DatasetSource(**kwargs)


def test_manifest_shape(bundle):
    manifest = bundle.manifest()
    assert manifest["splits"] == {"dev": 20, "train": 19}
    assert manifest["databases"]["concert_singer"]["has_file"] is True
    assert manifest["databases"]["college_2"]["has_file"] is False


# one record for each way a record can fail, and the good ones around them
_BAD_AND_GOOD_RECORDS = [
    ["not", "an", "object"],
    7,
    {"db_id": "nope", "question": "q", "query": "SELECT 1"},
    {"db_id": 3, "question": "q", "query": "SELECT 1"},
    {"db_id": ["d"], "question": "q", "query": "SELECT 1"},
    {"db_id": "nope", "question": "", "query": ""},
    {"db_id": "d", "question": "", "query": "SELECT 1"},
    {"db_id": "d", "query": "SELECT 1"},
    {"db_id": "d", "question": "q", "query": ""},
    {"db_id": "d", "question": "q"},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "evidence": 5},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "evidence": ["e"]},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "difficulty": "impossible"},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "difficulty": ["simple"]},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "difficulty": 3},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "difficulty": {}},
    {"db_id": "d", "question": "q", "SQL": "SELECT 1", "difficulty": None},
    {"db_id": "d", "question": "q1", "SQL": "SELECT 1", "difficulty": "simple", "evidence": "e"},
    {"db_id": "d", "question": "q2", "query": "SELECT 2", "difficulty": "moderate"},
    {"db_id": "d", "question": "q3", "SQL": "SELECT 3", "difficulty": "simple", "evidence": ""},
    {"db_id": "d", "question": "q4", "SQL": "SELECT 4", "difficulty": "challenge"},
]

# the problem each bad record above is reported with, by its position
_SPIDER_PROBLEMS = {
    0: "not a JSON object",
    1: "not a JSON object",
    2: "unknown db_id 'nope'",
    3: "unknown db_id 3",
    4: "unknown db_id ['d']",
    5: "unknown db_id 'nope'",
    6: "question must be a non-empty string",
    7: "question must be a non-empty string",
    8: "SQL query must be a non-empty string",
    9: "SQL query must be a non-empty string",
}
_BIRD_PROBLEMS = {
    **_SPIDER_PROBLEMS,
    10: "evidence must be a string",
    11: "evidence must be a string",
    12: "difficulty 'impossible' not in ('simple', 'moderate', 'challenge')",
    13: "difficulty ['simple'] not in ('simple', 'moderate', 'challenge')",
    14: "difficulty 3 not in ('simple', 'moderate', 'challenge')",
    15: "difficulty {} not in ('simple', 'moderate', 'challenge')",
}


def _bad_and_good_splits(tmp_path, dialect: str) -> DatasetSource:
    """A one-table catalog and two splits: train holds the records above,
    dev the same in reverse."""
    tables = tmp_path / "tables.json"
    tables.write_text(json.dumps([{"db_id": "d", "table_names_original": ["t"],
                                   "column_names_original": [[-1, "*"], [0, "a"]]}]),
                      encoding="utf-8")
    splits = {}
    for name, records in (("train", _BAD_AND_GOOD_RECORDS), ("dev", _BAD_AND_GOOD_RECORDS[::-1])):
        splits[name] = tmp_path / f"{name}.json"
        splits[name].write_text(json.dumps(records), encoding="utf-8")
    return DatasetSource("x", dialect, tables, splits)


@pytest.mark.parametrize("dialect, problems", [("spider", _SPIDER_PROBLEMS),
                                               ("bird", _BIRD_PROBLEMS)])
def test_every_record_error_keeps_its_text_and_place(tmp_path, dialect, problems):
    """The exact problems, in order, of two splits that hit every record
    error, as the per-record loader reported them: one per bad record, the
    first check it fails, train's before dev's."""
    last = len(_BAD_AND_GOOD_RECORDS) - 1
    expected = [f"split train: record {pos}: {text}" for pos, text in problems.items()]
    expected += [f"split dev: record {last - pos}: {text}"
                 for pos, text in reversed(problems.items())]
    with pytest.raises(DatasetError) as err:
        load_bundle(_bad_and_good_splits(tmp_path, dialect))
    assert list(err.value.args) == expected
    bundle, errors = validate_dataset(_bad_and_good_splits(tmp_path, dialect))
    assert errors == expected
    good = len(_BAD_AND_GOOD_RECORDS) - len(problems)
    assert [len(rows) for rows in bundle.splits.values()] == [good, good]


def test_example_records_are_frozen_values_sharing_their_labels(tmp_path):
    bundle, errors = validate_dataset(_bad_and_good_splits(tmp_path, "bird"))
    train, dev = bundle.splits["train"], bundle.splits["dev"]
    first = train[-5]
    assert (first.index, first.question, first.gold_sql, first.db_id, first.evidence) == (
        16, "q", "SELECT 1", "d", None)
    assert first.difficulty is None  # a null is no label
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.question = "changed"
    twin = ExampleTriple(16, "q", "SELECT 1", "d")
    assert twin == first and hash(twin) == hash(first)
    assert ExampleTriple(17, "q", "SELECT 1", "d") != first
    assert dataclasses.replace(train[-4], index=3) == dev[3]
    labels = [ex.difficulty for ex in train + dev if ex.difficulty is not None]
    assert sorted({label.label for label in labels}) == ["challenge", "moderate", "simple"]
    for label in labels:
        assert label is next(other for other in labels if other.label == label.label)
        assert vars(label) == {"scheme": "bird3", "label": label.label}

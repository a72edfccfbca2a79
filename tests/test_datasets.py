from __future__ import annotations

import json

import pytest

from sqlbench.datasets import (
    DatasetError,
    DatasetSource,
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
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text())
    entries[0]["foreign_keys"][0][0] = 99  # out of range
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(DatasetError) as err:
        load_catalog(path)
    assert "concert_singer" in str(err.value)
    assert "99" in str(err.value)


def test_duplicate_db_id(tmp_path, fixtures_dir):
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text())
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


def test_referential_closure(bundle):
    for rows in bundle.splits.values():
        for example in rows:
            assert example.db_id in bundle.schemas


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
    entries = json.loads((fixtures_dir / "spider" / "tables.json").read_text())
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

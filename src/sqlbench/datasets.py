"""Benchmark dataset loading: schema catalogs and example files."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

SPIDER = "spider"
BIRD = "bird"
DIALECTS = (SPIDER, BIRD)
SPLITS = ("train", "dev", "test")

SPIDER_LABELS = ("easy", "medium", "hard", "extra")
BIRD_LABELS = ("simple", "moderate", "challenge")
SCHEME_LABELS = {"spider4": SPIDER_LABELS, "bird3": BIRD_LABELS}


class DatasetError(Exception):
    """Malformed or inconsistent dataset input; each argument is one problem."""

    def __str__(self) -> str:
        return "; ".join(str(arg) for arg in self.args)


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise DatasetError("table name must be a non-empty string")
        if not all(isinstance(c, str) and c for c in self.columns):
            raise DatasetError(f"column names of table {self.name!r} must be non-empty strings")
        folded = [c.lower() for c in self.columns]
        if len(set(folded)) != len(folded):
            raise DatasetError(f"duplicate column names in table {self.name!r}")


@dataclass(frozen=True)
class KeyRef:
    table: str
    column: str


@dataclass(frozen=True)
class ForeignKey:
    child: KeyRef
    parent: KeyRef


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple[TableDef, ...]
    primary_keys: tuple[KeyRef, ...]
    foreign_keys: tuple[ForeignKey, ...]

    def __post_init__(self) -> None:
        # folded table name -> folded column names; the first of two tables
        # whose names fold alike wins. Column names are interned: cloned
        # schemas share them.
        columns: dict[str, frozenset[str]] = {}
        for t in self.tables:
            columns.setdefault(t.name.lower(), frozenset(sys.intern(c.lower()) for c in t.columns))
        object.__setattr__(self, "_columns", columns)
        for ref in self.primary_keys:
            self._check_ref(ref, "primary key")
        for fk in self.foreign_keys:
            self._check_ref(fk.child, "foreign key")
            self._check_ref(fk.parent, "foreign key")

    def _check_ref(self, ref: KeyRef, kind: str) -> None:
        if not self.has_column(ref.table, ref.column):
            raise DatasetError(
                f"{self.db_id}: {kind} references unknown column {ref.table}.{ref.column}"
            )

    def has_column(self, table: str, column: str) -> bool:
        columns = self._columns.get(table.lower())
        return columns is not None and column.lower() in columns

    @cached_property
    def rendered(self) -> dict:
        """This schema's prompt fragment by style, kept by ``prompts``: a
        schema never changes, so each style is rendered once."""
        return {}

    def primary_key_of(self, table: str) -> str | None:
        """First declared primary-key column of a table, original casing."""
        folded = table.lower()
        for ref in self.primary_keys:
            if ref.table.lower() == folded:
                return ref.column
        return None


@dataclass(frozen=True)
class DifficultyLabel:
    scheme: str  # "spider4" | "bird3"
    label: str

    def __post_init__(self) -> None:
        allowed = SCHEME_LABELS.get(self.scheme)
        if allowed is None:
            raise ValueError(f"unknown difficulty scheme {self.scheme!r}")
        if self.label not in allowed:
            raise ValueError(f"label {self.label!r} not in scheme {self.scheme}")


@dataclass(frozen=True)
class ExampleTriple:
    index: int
    question: str
    gold_sql: str
    db_id: str
    difficulty: DifficultyLabel | None = None
    evidence: str | None = None


@dataclass(frozen=True)
class DatasetSource:
    """Where a dataset lives: its schema catalog, one example file per split
    and, for EX scoring, the directory of its SQLite databases."""

    name: str = "dataset"
    dialect: str = SPIDER
    tables: Path = Path("tables.json")
    splits: dict[str, Path] = field(default_factory=dict)
    db_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise ValueError(f"dialect must be one of {DIALECTS}, got {self.dialect!r}")
        for split in self.splits:
            if split not in SPLITS:
                raise ValueError(f"splits: unknown split name {split!r}, not in {SPLITS}")


@dataclass
class DatasetBundle:
    name: str
    dialect: str
    splits: dict[str, list[ExampleTriple]] = field(default_factory=dict)
    schemas: dict[str, DatabaseSchema] = field(default_factory=dict)
    db_files: dict[str, Path] = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "dialect": self.dialect,
            "splits": {name: len(rows) for name, rows in sorted(self.splits.items())},
            "databases": {
                db_id: {
                    "tables": len(schema.tables),
                    "has_file": db_id in self.db_files,
                }
                for db_id, schema in sorted(self.schemas.items())
            },
        }


def _catalog_entry_to_schema(entry: dict) -> DatabaseSchema:
    db_id = entry["db_id"]
    table_names = entry["table_names_original"]
    raw_columns = entry["column_names_original"]

    per_table: list[list[str]] = [[] for _ in table_names]
    for idx, (tbl_idx, col_name) in enumerate(raw_columns):
        if tbl_idx == -1:
            continue  # the [-1, "*"] sentinel
        if not 0 <= tbl_idx < len(table_names):
            raise DatasetError(
                f"{db_id}: column {idx} references unknown table index {tbl_idx}"
            )
        per_table[tbl_idx].append(col_name)

    tables = tuple(
        TableDef(name=name, columns=tuple(cols)) for name, cols in zip(table_names, per_table)
    )

    def column_ref(col_idx: int, what: str) -> KeyRef:
        if not 0 <= col_idx < len(raw_columns) or raw_columns[col_idx][0] == -1:
            raise DatasetError(f"{db_id}: {what} column index {col_idx} out of range")
        tbl_idx, col_name = raw_columns[col_idx]
        return KeyRef(table=table_names[tbl_idx], column=col_name)

    primary_keys = []
    for pk in entry.get("primary_keys", []):
        # some catalogs list composite keys as nested lists
        cols = pk if isinstance(pk, list) else [pk]
        for col_idx in cols:
            primary_keys.append(column_ref(col_idx, "primary key"))

    foreign_keys = []
    for pair in entry.get("foreign_keys", []):
        child_idx, parent_idx = pair
        foreign_keys.append(
            ForeignKey(
                child=column_ref(child_idx, "foreign key"),
                parent=column_ref(parent_idx, "foreign key"),
            )
        )

    return DatabaseSchema(
        db_id=db_id,
        tables=tables,
        primary_keys=tuple(primary_keys),
        foreign_keys=tuple(foreign_keys),
    )


def _example_from_record(ordinal: int, rec: dict, bundle: DatasetBundle) -> ExampleTriple:
    if not isinstance(rec, dict):
        raise DatasetError(f"record {ordinal}: not a JSON object")
    db_id = rec.get("db_id")
    question = rec.get("question")
    # BIRD releases carry the gold query under "SQL"
    sql = rec.get("query", rec.get("SQL"))
    if not isinstance(db_id, str) or db_id not in bundle.schemas:
        raise DatasetError(f"record {ordinal}: unknown db_id {db_id!r}")
    if not question or not isinstance(question, str):
        raise DatasetError(f"record {ordinal}: question must be a non-empty string")
    if not sql or not isinstance(sql, str):
        raise DatasetError(f"record {ordinal}: SQL query must be a non-empty string")
    difficulty = None
    evidence = None
    if bundle.dialect == BIRD:
        evidence = rec.get("evidence") or None
        if not isinstance(evidence, (str, type(None))):
            raise DatasetError(f"record {ordinal}: evidence must be a string")
        raw_label = rec.get("difficulty")
        if raw_label:
            if raw_label not in BIRD_LABELS:
                raise DatasetError(
                    f"record {ordinal}: difficulty {raw_label!r} not in {BIRD_LABELS}"
                )
            difficulty = DifficultyLabel(scheme="bird3", label=raw_label)
    return ExampleTriple(
        index=ordinal,
        question=question,
        gold_sql=sql,
        db_id=db_id,
        difficulty=difficulty,
        evidence=evidence,
    )


def discover_db_files(db_dir: str | Path, db_ids: list[str]) -> dict[str, Path]:
    """Find SQLite files under the datasets' ``{db_dir}/{db_id}/{db_id}.sqlite`` layout.

    A flat ``{db_dir}/{db_id}.sqlite`` layout is accepted too. Missing files are
    simply absent from the result; EX scoring reports them as unavailable.
    """
    root = Path(db_dir)
    found: dict[str, Path] = {}
    for db_id in db_ids:
        for candidate in (root / db_id / f"{db_id}.sqlite", root / f"{db_id}.sqlite"):
            if candidate.is_file():
                found[db_id] = candidate
                break
    return found


def validate_dataset(source: DatasetSource) -> tuple[DatasetBundle | None, list[str]]:
    """Load schemas plus splits, collecting every validation failure instead
    of stopping at the first. Returns (bundle, errors); the bundle is None
    only when the catalog itself is unreadable."""
    errors: list[str] = []
    bundle = DatasetBundle(name=source.name, dialect=source.dialect)
    try:
        with open(source.tables, encoding="utf-8") as fp:
            entries = json.load(fp)
        if not isinstance(entries, list):
            raise ValueError("not a JSON list of databases")
    except (OSError, ValueError) as exc:
        return None, [f"schema catalog {source.tables}: {exc}"]
    for pos, entry in enumerate(entries):
        try:
            schema = _catalog_entry_to_schema(entry)
            if schema.db_id in bundle.schemas:
                raise DatasetError(f"duplicate db_id {schema.db_id!r}")
            bundle.schemas[schema.db_id] = schema
        except (DatasetError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"catalog entry {pos}: {exc}")
    # each file's raw JSON is dropped before the next is read, to bound the peak
    del entries
    for split, path in source.splits.items():
        try:
            with open(path, encoding="utf-8") as fp:
                records = json.load(fp)
            if not isinstance(records, list):
                raise ValueError("not a JSON list of records")
        except (OSError, ValueError) as exc:
            errors.append(f"split {split} ({path}): {exc}")
            continue
        rows = []
        for ordinal, rec in enumerate(records):
            try:
                rows.append(_example_from_record(ordinal, rec, bundle))
            except DatasetError as exc:
                errors.append(f"split {split}: {exc}")
        bundle.splits[split] = rows
        del records
    if source.db_dir is not None:
        bundle.db_files = discover_db_files(source.db_dir, sorted(bundle.schemas))
    return bundle, errors


def load_bundle(source: DatasetSource, splits: tuple[str, ...] | None = None) -> DatasetBundle:
    """``validate_dataset`` that raises one DatasetError listing every problem.
    With ``splits``, only those split files are read; the catalog always is."""
    if splits is not None:
        source = replace(source, splits={k: v for k, v in source.splits.items() if k in splits})
    bundle, errors = validate_dataset(source)
    if errors:
        raise DatasetError(*errors)
    return bundle


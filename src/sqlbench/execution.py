"""Sandboxed query execution against dataset SQLite files.

Databases are opened strictly read-only, every execution runs under a
wall-clock deadline, and results come back as plain row lists ready for
order-sensitive or multiset comparison.
"""

from __future__ import annotations

import sqlite3
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from math import isclose
from pathlib import Path

from .sqlkit.parser import SqlParseError, tokenize

DB_UNAVAILABLE = "db-unavailable"
EXEC_ERROR = "exec-error"
TIMEOUT = "timeout"

_PROGRESS_INTERVAL_OPS = 10_000
_FETCH_BATCH = 2048
_MIN_ELAPSED_S = 1e-6
_ELAPSED_RUNS = 3  # the executions median_elapsed takes the median of


class ExecutionFailure(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


@dataclass
class ExecOutcome:
    rows: list[tuple]
    elapsed: float


def has_top_level_order_by(sql: str) -> bool:
    """Whether the query orders its final result (ORDER BY at paren depth 0)."""
    try:
        kinds, texts = tokenize(sql)
    except SqlParseError:
        return False
    depth = 0
    for i, kind in enumerate(kinds):
        if kind == "op" and texts[i] == "(":
            depth += 1
        elif kind == "op" and texts[i] == ")":
            depth -= 1
        elif depth == 0 and kind == "word" and texts[i] == "order" and texts[i + 1] == "by":
            return True
    return False


def connect_readonly(db_file: str | Path) -> sqlite3.Connection:
    """Open a database strictly read-only, for the calling thread only."""
    path = Path(db_file)
    if not path.is_file():
        raise ExecutionFailure(DB_UNAVAILABLE, f"no database file at {path}")
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise ExecutionFailure(EXEC_ERROR, str(exc)) from exc
    try:
        conn.execute("PRAGMA query_only = ON")
    except sqlite3.Error as exc:
        conn.close()
        raise ExecutionFailure(EXEC_ERROR, str(exc)) from exc
    return conn


def execute_sql(sql: str, conn: sqlite3.Connection, timeout_s: float) -> ExecOutcome:
    """Run one statement on ``conn`` and fetch all rows under a deadline.

    ``conn`` is an open connection from ``connect_readonly``, such as one that
    ``ReusedConnection.get`` hands out. It is left open, with its cursor
    closed and no progress handler, whether the statement succeeds or fails.
    """
    deadline = time.monotonic() + timeout_s
    timed_out = False

    def guard() -> int:
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    cursor = None
    try:
        conn.set_progress_handler(guard, _PROGRESS_INTERVAL_OPS)
        start = time.perf_counter()
        cursor = conn.execute(sql)
        rows: list[tuple] = []
        while True:
            batch = cursor.fetchmany(_FETCH_BATCH)
            if not batch:
                break
            rows.extend(batch)
            if time.monotonic() > deadline:
                timed_out = True
                raise sqlite3.OperationalError("interrupted: fetch deadline exceeded")
        elapsed = time.perf_counter() - start
    except (sqlite3.Error, sqlite3.Warning) as exc:
        kind = TIMEOUT if timed_out else EXEC_ERROR
        raise ExecutionFailure(kind, str(exc)) from exc
    finally:
        if cursor is not None:
            cursor.close()
        conn.set_progress_handler(None, 0)
    return ExecOutcome(rows=rows, elapsed=max(elapsed, _MIN_ELAPSED_S))


# authorizer actions of statements that can leave state on a connection
_STATEFUL_ACTIONS = frozenset({
    sqlite3.SQLITE_PRAGMA,
    sqlite3.SQLITE_TRANSACTION,
    sqlite3.SQLITE_SAVEPOINT,
    sqlite3.SQLITE_ATTACH,
    sqlite3.SQLITE_DETACH,
})


class ReusedConnection:
    """One open read-only connection, to the database used last; asking for
    another database closes it and opens one there.

    A statement that can leave state on the connection (a PRAGMA, a
    transaction, a savepoint, ATTACH or DETACH) still runs on it, but retires
    it, so no later statement sees what an earlier one set. ``close`` closes
    the connection still open.
    """

    def __init__(self) -> None:
        self._db_file: str | Path | None = None
        self._conn: sqlite3.Connection | None = None
        self._retired = False

    def get(self, db_file: str | Path) -> sqlite3.Connection:
        if self._conn is not None:
            if self._db_file == db_file and not self._retired:
                return self._conn
            self.close()
        conn = connect_readonly(db_file)
        self._retired = False

        def authorize(action, *_args) -> int:
            if action in _STATEFUL_ACTIONS:
                self._retired = True
            return sqlite3.SQLITE_OK

        conn.set_authorizer(authorize)
        self._db_file, self._conn = db_file, conn
        return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ReusedConnection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def median_elapsed(
    sql: str,
    db_file: str | Path,
    timeout_s: float,
    connection: ReusedConnection,
) -> float:
    """Median wall-clock time of repeated executions, for efficiency ratios.

    Each run takes its connection from ``connection``, so the timings leave
    out opening the database and reading its schema, and a statement that
    retires the connection leaves the next run a fresh one.
    """
    samples = [execute_sql(sql, connection.get(db_file), timeout_s).elapsed
               for _ in range(_ELAPSED_RUNS)]
    return max(statistics.median(samples), _MIN_ELAPSED_S)


def _cells_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num != b_num:
        return False
    if a_num:
        return a == b or isclose(float(a), float(b), rel_tol=1e-6, abs_tol=0.0)
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _cell_key(cell):
    if cell is None:
        return (0, "")
    if isinstance(cell, (int, float)):
        return (1, float(cell), "")
    if isinstance(cell, bytes):
        return (3, cell.hex())
    return (2, str(cell))


def _row_key(row: tuple):
    return tuple(_cell_key(cell) for cell in row)


def results_match(gold_rows: list[tuple], pred_rows: list[tuple], ordered: bool) -> bool:
    """Compare result sets: as sequences when the gold query is ordered,
    as multisets of tuples otherwise. Cells compare positionally."""
    if len(gold_rows) != len(pred_rows):
        return False
    if gold_rows and len(gold_rows[0]) != len(pred_rows[0]):
        return False
    if ordered:
        return all(_rows_equal(g, p) for g, p in zip(gold_rows, pred_rows))
    if Counter(gold_rows) == Counter(pred_rows):
        return True
    gold_sorted = sorted(gold_rows, key=_row_key)
    pred_sorted = sorted(pred_rows, key=_row_key)
    return all(_rows_equal(g, p) for g, p in zip(gold_sorted, pred_sorted))

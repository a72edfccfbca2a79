"""How an artifact reaches disk: whole, or not at all.

A whole file is written as ``<name>.writing``, in a directory made for it if
need be, and renamed over ``<name>`` once complete, so a kill at any point
leaves the old file or the new one, never part of either. The rename retires
``<name>.partial``, the append log whose records the file now holds. A log
is opened once for a batch of records, and opening it ends a torn last
line, so every record starts on a line boundary.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TextIO

_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def is_text(value: object) -> bool:
    """Whether ``value`` is a string that encodes to UTF-8, as every artifact
    does: one with a lone surrogate is refused where it enters, be it a
    dataset or config field, a model reply or a predictions line."""
    return isinstance(value, str) and (value.isascii() or not _SURROGATE_RE.search(value))


def log_path(path: str | Path) -> Path:
    """The append log that collects the records of ``path``."""
    return Path(f"{path}.partial")


@contextmanager
def writing(path: str | Path) -> Iterator[TextIO]:
    """A text file that becomes ``path`` when the block exits cleanly."""
    temp = Path(f"{path}.writing")
    temp.parent.mkdir(parents=True, exist_ok=True)
    with open(temp, "w", encoding="utf-8") as fp:
        yield fp
    os.replace(temp, path)
    log_path(path).unlink(missing_ok=True)


def write_text(path: str | Path, text: str) -> None:
    with writing(path) as fp:
        fp.write(text)


@contextmanager
def appending(path: str | Path) -> Iterator[Callable[[str], None]]:
    """An append log held open for a batch: yields the function that appends
    one record line. A torn last line is ended once, on open, with a newline
    rather than cut: if the tear fell just before its newline, the line is a
    whole record that a reader already counts. Each record is written and
    flushed by itself, so a kill leaves only whole lines and perhaps a torn
    last one."""
    try:
        fp = open(path, "a+b")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fp = open(path, "a+b")
    with fp:
        if fp.tell():
            fp.seek(-1, os.SEEK_END)
            if fp.read(1) != b"\n":
                fp.write(b"\n")

        def append(line: str) -> None:
            fp.write(line.encode("utf-8") + b"\n")
            fp.flush()

        yield append

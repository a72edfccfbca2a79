"""How an artifact reaches disk: whole, or not at all.

A whole file is written as ``<name>.writing``, in a directory made for it if
need be, and renamed over ``<name>`` once complete, so a kill at any point
leaves the old file or the new one, never part of either. The rename retires
``<name>.partial``, the append log whose records the file now holds. Each
append to a log first ends a torn last line, so every record starts on a
line boundary.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


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


def append_line(path: str | Path, line: str) -> None:
    """Append one record line to an append log. A torn last line is ended
    with a newline rather than cut: if the tear fell just before its
    newline, the line is a whole record that a reader already counts."""
    data = line.encode("utf-8") + b"\n"
    try:
        fp = open(path, "a+b")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fp = open(path, "a+b")
    with fp:
        if fp.tell():
            fp.seek(-1, os.SEEK_END)
            if fp.read(1) != b"\n":
                data = b"\n" + data
        fp.write(data)

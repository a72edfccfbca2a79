"""Exact-set matching over canonical clause decompositions."""

from __future__ import annotations

from .parser import SqlUnit


def em_match(pred: SqlUnit, gold: SqlUnit) -> bool:
    """True iff every clause set of ``pred`` equals the corresponding clause
    set of ``gold``. Literal values never participate: they were masked at
    parse time. Both signatures are canonical by construction, so the
    comparison is string equality."""
    return pred.signature == gold.signature

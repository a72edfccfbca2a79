"""Exact-set matching over canonical clause decompositions."""

from __future__ import annotations

from .ast import SqlUnit, clause_signature


def em_match(pred: SqlUnit, gold: SqlUnit) -> bool:
    """True iff every clause set of ``pred`` equals the corresponding clause
    set of ``gold``.

    Set-valued clauses (select, from, join/where/having conditions, group by)
    compare order-insensitively; ORDER BY compares as a sequence including
    direction; LIMIT compares by presence; set operations recurse. Literal
    values never participate: they were masked at parse time. AND/OR
    connectors compare as the set of connector kinds used.

    Both units are canonical by construction, so the comparison reduces to
    signature equality.
    """
    return clause_signature(pred) == clause_signature(gold)

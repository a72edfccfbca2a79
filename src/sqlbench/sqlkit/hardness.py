"""Difficulty bucketing for parsed queries, replicating the Spider hardness rules.

``classify_difficulty`` returns a label of the ``spider4`` scheme, the only
scheme that is computed: BIRD's ``bird3`` labels are dataset-supplied. The
label is a pure function of the parsed structure: whitespace, casing and
literal values never change it.
"""

from __future__ import annotations

import re

from ..datasets import DifficultyLabel
from .ast import RANGE_KIND, SUBQUERY_KIND, Predicate, SqlUnit

_AGG_RE = re.compile(r"\b(?:count|sum|avg|min|max)\(")


def _all_preds(unit: SqlUnit) -> list[Predicate]:
    return list(unit.join_conds) + list(unit.where_preds) + list(unit.having_preds)


def _count_or(unit: SqlUnit) -> int:
    conns = unit.join_connectors + unit.where_connectors + unit.having_connectors
    return sum(1 for c in conns if c == "or")


def _count_like(unit: SqlUnit) -> int:
    return sum(1 for p in _all_preds(unit) if p.op in ("like", "not like"))


def _count_aggregations(unit: SqlUnit) -> int:
    texts = list(unit.select_items)
    texts += [p.lhs for p in unit.where_preds + unit.having_preds]
    texts += list(unit.group_by)
    texts += [item.expr for item in unit.order_by]
    return sum(len(_AGG_RE.findall(text)) for text in texts)


def _count_nested(unit: SqlUnit) -> int:
    nested = 0
    for pred in _all_preds(unit):
        if pred.value.kind == SUBQUERY_KIND:
            nested += 1
        elif pred.value.kind == RANGE_KIND:
            nested += sum(1 for b in pred.value.bounds if b.kind == SUBQUERY_KIND)
    if unit.set_op is not None:
        nested += 1
    return nested


def component_counts(unit: SqlUnit) -> tuple[int, int, int]:
    """(component1, component2, others) counts behind the hardness rules.

    component1 counts clause keywords: WHERE, GROUP BY, ORDER BY, LIMIT, one
    per extra joined source, each OR connector, and each LIKE condition.
    component2 counts nesting: subqueries in condition values plus set
    operations. ``others`` counts the extras: more than one aggregation, more
    than one selected column, two or more WHERE conditions, two or more GROUP
    BY columns.
    """
    comp1 = 0
    if unit.where_preds:
        comp1 += 1
    if unit.group_by:
        comp1 += 1
    if unit.order_by:
        comp1 += 1
    if unit.limit is not None:
        comp1 += 1
    sources = len(unit.from_tables) + len(unit.from_subqueries)
    if sources > 1:
        comp1 += sources - 1
    comp1 += _count_or(unit)
    comp1 += _count_like(unit)

    comp2 = _count_nested(unit)

    others = 0
    if _count_aggregations(unit) > 1:
        others += 1
    if len(unit.select_items) > 1:
        others += 1
    if len(unit.where_preds) > 1:
        others += 1
    if len(unit.group_by) > 1:
        others += 1
    return comp1, comp2, others


def classify_difficulty(unit: SqlUnit) -> DifficultyLabel:
    comp1, comp2, others = component_counts(unit)
    if comp1 <= 1 and others == 0 and comp2 == 0:
        label = "easy"
    elif (others <= 2 and comp1 <= 1 and comp2 == 0) or (
        comp1 <= 2 and others < 2 and comp2 == 0
    ):
        label = "medium"
    elif (
        (others > 2 and comp1 <= 2 and comp2 == 0)
        or (2 < comp1 <= 3 and others <= 2 and comp2 == 0)
        or (comp1 <= 1 and others == 0 and comp2 <= 1)
    ):
        label = "hard"
    else:
        label = "extra"
    return DifficultyLabel(scheme="spider4", label=label)

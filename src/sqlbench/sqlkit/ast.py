"""Canonical clause-set structure for parsed SQL.

Parsed queries are normalized aggressively so that clause-set comparison
reduces to comparing canonical signatures: identifiers case-folded, table
aliases resolved away, literals masked, and set-valued clauses stored in a
canonical sort order.
"""

from __future__ import annotations

from dataclasses import dataclass

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
SET_OPS = ("union", "intersect", "except")

MASKED_KIND = "masked"
SUBQUERY_KIND = "subquery"
COLUMN_KIND = "column"
RANGE_KIND = "range"


@dataclass(frozen=True)
class ValueSlot:
    """Right-hand side of a predicate: a masked literal, a column expression,
    a nested query, or a masked BETWEEN range."""

    kind: str
    subquery: SqlUnit | None = None
    column_expr: str | None = None
    bounds: tuple[ValueSlot, ValueSlot] | None = None

    def __post_init__(self) -> None:
        if (self.kind == SUBQUERY_KIND) != (self.subquery is not None):
            raise ValueError("subquery slot must carry a subquery, others must not")
        if (self.kind == COLUMN_KIND) != (self.column_expr is not None):
            raise ValueError("column slot must carry a column expression")
        if (self.kind == RANGE_KIND) != (self.bounds is not None):
            raise ValueError("range slot must carry bounds")


MASKED = ValueSlot(kind=MASKED_KIND)


@dataclass(frozen=True)
class Predicate:
    lhs: str
    op: str
    value: ValueSlot


@dataclass(frozen=True)
class OrderItem:
    expr: str
    direction: str  # "asc" | "desc"


@dataclass(frozen=True)
class SqlUnit:
    select_distinct: bool = False
    select_items: tuple[str, ...] = ()
    from_tables: tuple[str, ...] = ()
    from_subqueries: tuple[SqlUnit, ...] = ()
    join_conds: tuple[Predicate, ...] = ()
    join_connectors: tuple[str, ...] = ()
    where_preds: tuple[Predicate, ...] = ()
    where_connectors: tuple[str, ...] = ()
    group_by: tuple[str, ...] = ()
    having_preds: tuple[Predicate, ...] = ()
    having_connectors: tuple[str, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: ValueSlot | None = None
    set_op: tuple[str, SqlUnit] | None = None

    @classmethod
    def build(cls, **kwargs) -> SqlUnit:
        """Construct a unit with set-valued clauses put into canonical order.

        ORDER BY keeps its sequence; connector lists keep parse order (their
        comparison is order-insensitive, but OR occurrences are counted by the
        difficulty classifier).
        """
        for clause in ("select_items", "from_tables", "group_by"):
            if clause in kwargs:
                kwargs[clause] = tuple(sorted(kwargs[clause]))
        if "from_subqueries" in kwargs:
            kwargs["from_subqueries"] = tuple(
                sorted(kwargs["from_subqueries"], key=clause_signature)
            )
        for clause in ("join_conds", "where_preds", "having_preds"):
            if clause in kwargs:
                kwargs[clause] = tuple(sorted(kwargs[clause], key=render_predicate))
        return cls(**kwargs)


def render_slot(slot: ValueSlot) -> str:
    if slot.kind == MASKED_KIND:
        return "?"
    if slot.kind == COLUMN_KIND:
        return slot.column_expr
    if slot.kind == SUBQUERY_KIND:
        return "(" + clause_signature(slot.subquery) + ")"
    low, high = slot.bounds
    return render_slot(low) + ".." + render_slot(high)


def render_predicate(pred: Predicate) -> str:
    return f"{pred.lhs} {pred.op} {render_slot(pred.value)}"


def _connector_kinds(connectors: tuple[str, ...]) -> str:
    return "/".join(sorted(set(connectors)))


def clause_signature(unit: SqlUnit) -> str:
    """Deterministic canonical rendering of the clause decomposition.

    Two parsed queries match exactly (value-insensitively) iff their
    signatures are equal: set-valued clauses are sorted, AND/OR connectors
    compare as the set of kinds used, ORDER BY keeps sequence and direction,
    and LIMIT compares by presence only.
    """
    parts = []
    select = "select"
    if unit.select_distinct:
        select += " distinct"
    parts.append(select + "{" + "|".join(unit.select_items) + "}")
    if unit.from_tables or unit.from_subqueries:
        sources = list(unit.from_tables) + [
            "(" + clause_signature(sub) + ")" for sub in unit.from_subqueries
        ]
        parts.append("from{" + "|".join(sorted(sources)) + "}")
    if unit.join_conds:
        parts.append("on{" + "|".join(render_predicate(p) for p in unit.join_conds) + "}")
    if unit.where_preds:
        parts.append(
            "where[" + _connector_kinds(unit.where_connectors) + "]"
            "{" + "|".join(render_predicate(p) for p in unit.where_preds) + "}"
        )
    if unit.group_by:
        parts.append("group{" + "|".join(unit.group_by) + "}")
    if unit.having_preds:
        parts.append(
            "having[" + _connector_kinds(unit.having_connectors) + "]"
            "{" + "|".join(render_predicate(p) for p in unit.having_preds) + "}"
        )
    if unit.order_by:
        parts.append(
            "order(" + ", ".join(f"{item.expr} {item.direction}" for item in unit.order_by) + ")"
        )
    if unit.limit is not None:
        parts.append("limit")
    if unit.set_op is not None:
        kind, rhs = unit.set_op
        parts.append(f"{kind}({clause_signature(rhs)})")
    return " ".join(parts)


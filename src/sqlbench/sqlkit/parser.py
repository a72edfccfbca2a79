"""Tokenizer and parser for the SQL subset used by the benchmark gold queries.

Covers SELECT with joins, nested subqueries in FROM/WHERE/HAVING, GROUP
BY/HAVING, ORDER BY/LIMIT, UNION/INTERSECT/EXCEPT, the five aggregates,
DISTINCT, BETWEEN, IN, LIKE and NOT. Anything beyond the subset is rejected
with a structured parse failure rather than half-parsed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets import DatabaseSchema
from .ast import (
    AGG_FUNCS,
    COLUMN_KIND,
    MASKED,
    RANGE_KIND,
    SET_OPS,
    SUBQUERY_KIND,
    OrderItem,
    Predicate,
    SqlUnit,
    ValueSlot,
)


class SqlParseError(Exception):
    def __init__(self, reason: str, pos: int = 0):
        super().__init__(f"{reason} (at position {pos})")
        self.reason = reason
        self.pos = pos


@dataclass(frozen=True)
class Token:
    kind: str  # "word" | "num" | "str" | "op" | "end"
    text: str
    pos: int


_TWO_CHAR_OPS = ("<>", "!=", ">=", "<=")
_ONE_CHAR_OPS = "=<>(),;.*+-/%"

RESERVED = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "join", "inner", "left", "right", "full", "outer", "cross", "on",
    "as", "and", "or", "not", "in", "like", "between", "is", "null", "asc",
    "desc", "union", "intersect", "except", "all", "exists", "case", "when",
    "then", "else", "end", "cast",
} | set(AGG_FUNCS)

_MAX_DEPTH = 40


def tokenize(sql: str) -> list[Token]:
    out: list[Token] = []
    i, n = 0, len(sql)
    while i < n:
        c = sql[i]
        if c.isspace():
            i += 1
        elif sql.startswith("--", i):
            j = sql.find("\n", i)
            i = n if j < 0 else j + 1
        elif sql.startswith("/*", i):
            j = sql.find("*/", i)
            if j < 0:
                raise SqlParseError("unterminated comment", i)
            i = j + 2
        elif c in "'\"":
            # both quote styles carry literal values in these datasets
            j = i + 1
            while True:
                j = sql.find(c, j)
                if j < 0:
                    raise SqlParseError("unterminated string literal", i)
                if j + 1 < n and sql[j + 1] == c:  # doubled-quote escape
                    j += 2
                    continue
                break
            out.append(Token("str", sql[i : j + 1], i))
            i = j + 1
        elif c == "`" or c == "[":
            closing = "`" if c == "`" else "]"
            j = sql.find(closing, i + 1)
            if j < 0:
                raise SqlParseError("unterminated quoted identifier", i)
            out.append(Token("word", sql[i + 1 : j].lower(), i))
            i = j + 1
        elif c.isdigit() or (
            c == "."
            and i + 1 < n
            and sql[i + 1].isdigit()
            and (not out or out[-1].kind not in ("word",) and out[-1].text != ")")
        ):
            j = i
            seen_dot = False
            while j < n and (sql[j].isdigit() or (sql[j] == "." and not seen_dot)):
                if sql[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and sql[j] in "eE":
                k = j + 1
                if k < n and sql[k] in "+-":
                    k += 1
                if k < n and sql[k].isdigit():
                    while k < n and sql[k].isdigit():
                        k += 1
                    j = k
            out.append(Token("num", sql[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            out.append(Token("word", sql[i:j].lower(), i))
            i = j
        elif sql.startswith(_TWO_CHAR_OPS, i):
            op = sql[i : i + 2]
            out.append(Token("op", "!=" if op == "<>" else op, i))
            i += 2
        elif c in _ONE_CHAR_OPS:
            out.append(Token("op", c, i))
            i += 1
        else:
            raise SqlParseError(f"unexpected character {c!r}", i)
    out.append(Token("end", "", n))
    return out


# --- raw parse tree (aliases unresolved) ---------------------------------
# expressions: ("col", qualifier|None, name) | ("star", qualifier|None)
#              | ("agg", func, distinct, arg) | ("lit",) | ("bin", op, l, r)
# values:      ("masked",) | ("sub", _RawQuery) | ("colv", expr)
#              | ("range", value, value)


class _RawQuery:
    def __init__(self):
        self.distinct = False
        self.items: list[tuple[tuple, str | None]] = []
        self.tables: list[tuple[str, str | None]] = []
        self.subqueries: list[tuple[_RawQuery, str | None]] = []
        self.join_preds: list[tuple] = []
        self.join_conns: list[str] = []
        self.where_preds: list[tuple] = []
        self.where_conns: list[str] = []
        self.group: list[tuple] = []
        self.having_preds: list[tuple] = []
        self.having_conns: list[str] = []
        self.order: list[tuple[tuple, str]] = []
        self.limit = False
        self.set_op: tuple[str, _RawQuery] | None = None


_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")

_NEGATED = {
    "=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
    "in": "not in", "not in": "in", "like": "not like", "not like": "like",
    "between": "not between", "not between": "between",
    "is null": "is not null", "is not null": "is null",
}

_JOIN_MODIFIERS = {"inner", "left", "right", "full", "outer", "cross"}


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    # -- token helpers --
    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text in words

    def accept_word(self, *words: str) -> bool:
        if self.at_word(*words):
            self.advance()
            return True
        return False

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return True
        return False

    def expect_word(self, word: str) -> None:
        tok = self.peek()
        if not (tok.kind == "word" and tok.text == word):
            raise SqlParseError(f"expected {word.upper()}, found {tok.text!r}", tok.pos)
        self.advance()

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if not (tok.kind == "op" and tok.text == op):
            raise SqlParseError(f"expected {op!r}, found {tok.text!r}", tok.pos)
        self.advance()

    def fail(self, reason: str) -> SqlParseError:
        return SqlParseError(reason, self.peek().pos)

    # -- grammar --
    def parse(self) -> _RawQuery:
        query = self.parse_query()
        while self.accept_op(";"):
            pass
        tok = self.peek()
        if tok.kind != "end":
            raise SqlParseError(f"trailing input {tok.text!r}", tok.pos)
        return query

    def parse_query(self) -> _RawQuery:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.fail("query nesting too deep")
        try:
            query = self.parse_query_operand()
            if self.peek().kind == "word" and self.peek().text in SET_OPS:
                kind = self.advance().text
                if kind == "union":
                    self.accept_word("all")
                query.set_op = (kind, self.parse_query())
            return query
        finally:
            self.depth -= 1

    def parse_query_operand(self) -> _RawQuery:
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            return query
        return self.parse_select_core()

    def parse_select_core(self) -> _RawQuery:
        self.expect_word("select")
        query = _RawQuery()
        query.distinct = self.accept_word("distinct")
        self.accept_word("all")
        query.items.append(self.parse_select_item())
        while self.accept_op(","):
            query.items.append(self.parse_select_item())
        if self.accept_word("from"):
            self.parse_from(query)
        if self.accept_word("where"):
            query.where_preds, query.where_conns = self.parse_condition()
        if self.accept_word("group"):
            self.expect_word("by")
            query.group.append(self.parse_expr())
            while self.accept_op(","):
                query.group.append(self.parse_expr())
            if self.accept_word("having"):
                query.having_preds, query.having_conns = self.parse_condition()
        if self.accept_word("order"):
            self.expect_word("by")
            query.order.append(self.parse_order_item())
            while self.accept_op(","):
                query.order.append(self.parse_order_item())
        if self.accept_word("limit"):
            tok = self.peek()
            if tok.kind != "num":
                raise SqlParseError("LIMIT expects a number", tok.pos)
            self.advance()
            if self.accept_word("offset") or self.accept_op(","):
                raise self.fail("unsupported construct: LIMIT with offset")
            query.limit = True
        return query

    def parse_select_item(self) -> tuple[tuple, str | None]:
        return self.parse_expr(), self.parse_optional_alias()

    def parse_from(self, query: _RawQuery) -> None:
        self.parse_from_item(query)
        while True:
            if self.accept_op(","):
                self.parse_from_item(query)
            elif self.peek().kind == "word" and (
                self.peek().text == "join" or self.peek().text in _JOIN_MODIFIERS
            ):
                while self.peek().text in _JOIN_MODIFIERS:
                    self.advance()
                self.expect_word("join")
                self.parse_from_item(query)
                if self.accept_word("on"):
                    preds, conns = self.parse_condition()
                    if query.join_preds:
                        query.join_conns.append("and")
                    query.join_preds.extend(preds)
                    query.join_conns.extend(conns)
            else:
                break

    def parse_from_item(self, query: _RawQuery) -> None:
        if self.accept_op("("):
            sub = self.parse_query()
            self.expect_op(")")
            query.subqueries.append((sub, self.parse_optional_alias()))
            return
        tok = self.peek()
        if tok.kind != "word" or tok.text in RESERVED:
            raise SqlParseError(f"expected table name, found {tok.text!r}", tok.pos)
        name = self.advance().text
        query.tables.append((name, self.parse_optional_alias()))

    def parse_optional_alias(self) -> str | None:
        if self.accept_word("as"):
            tok = self.peek()
            if tok.kind != "word":
                raise SqlParseError("expected alias name after AS", tok.pos)
            return self.advance().text
        tok = self.peek()
        if tok.kind == "word" and tok.text not in RESERVED:
            return self.advance().text
        return None

    def parse_condition(self) -> tuple[list[tuple], list[str]]:
        preds: list[tuple] = []
        conns: list[str] = []
        self.parse_cond_atom(preds, conns)
        while self.at_word("and", "or"):
            conns.append(self.advance().text)
            self.parse_cond_atom(preds, conns)
        return preds, conns

    def parse_cond_atom(self, preds: list[tuple], conns: list[str]) -> None:
        if self.peek().kind == "op" and self.peek().text == "(" and not self.starts_subquery():
            # parenthesized condition group: flatten, keeping connectors; a
            # failure here means the parens wrapped an expression instead
            saved = self.i
            try:
                self.expect_op("(")
                inner_preds, inner_conns = self.parse_condition()
                self.expect_op(")")
            except SqlParseError:
                self.i = saved
            else:
                preds.extend(inner_preds)
                conns.extend(inner_conns)
                return
        negate = self.accept_word("not")
        pred = self.parse_predicate()
        if negate:
            lhs, op, value = pred
            pred = (lhs, _NEGATED[op], value)
        preds.append(pred)

    def starts_subquery(self) -> bool:
        tok = self.peek(1)
        return self.peek().kind == "op" and self.peek().text == "(" and (
            tok.kind == "word" and tok.text == "select"
        )

    def parse_predicate(self) -> tuple:
        if self.at_word("exists"):
            raise self.fail("unsupported construct: EXISTS")
        lhs = self.parse_expr()
        negate = self.accept_word("not")
        tok = self.peek()
        if tok.kind == "word" and tok.text == "between":
            self.advance()
            low = self.parse_value()
            self.expect_word("and")
            high = self.parse_value()
            if low[0] == "masked" and high[0] == "masked":
                value = ("masked",)
            else:
                value = ("range", low, high)
            op = "not between" if negate else "between"
            return (lhs, op, value)
        if tok.kind == "word" and tok.text == "in":
            self.advance()
            self.expect_op("(")
            if self.at_word("select") or self.starts_subquery():
                sub = self.parse_query()
                self.expect_op(")")
                value = ("sub", sub)
            else:
                self.parse_literal()
                while self.accept_op(","):
                    self.parse_literal()
                self.expect_op(")")
                value = ("masked",)
            return (lhs, "not in" if negate else "in", value)
        if tok.kind == "word" and tok.text == "like":
            self.advance()
            return (lhs, "not like" if negate else "like", self.parse_value())
        if negate:
            raise SqlParseError("expected BETWEEN, IN or LIKE after NOT", tok.pos)
        if tok.kind == "word" and tok.text == "is":
            self.advance()
            negated = self.accept_word("not")
            self.expect_word("null")
            return (lhs, "is not null" if negated else "is null", ("masked",))
        if tok.kind == "op" and tok.text in _COMPARE_OPS:
            self.advance()
            return (lhs, tok.text, self.parse_value())
        raise SqlParseError(f"expected comparison operator, found {tok.text!r}", tok.pos)

    def parse_literal(self) -> None:
        tok = self.peek()
        if tok.kind in ("num", "str") or (tok.kind == "word" and tok.text == "null"):
            self.advance()
            return
        if tok.kind == "op" and tok.text in "+-" and self.peek(1).kind == "num":
            self.advance()
            self.advance()
            return
        raise SqlParseError(f"expected literal, found {tok.text!r}", tok.pos)

    def parse_value(self) -> tuple:
        if self.starts_subquery():
            self.expect_op("(")
            sub = self.parse_query()
            self.expect_op(")")
            return ("sub", sub)
        expr = self.parse_expr()
        if _expr_has_column(expr):
            return ("colv", expr)
        return ("masked",)

    # -- expressions --
    def parse_expr(self) -> tuple:
        expr = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-*/%":
            op = self.advance().text
            expr = ("bin", op, expr, self.parse_term())
        return expr

    def parse_term(self) -> tuple:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            if self.starts_subquery():
                raise self.fail("unsupported construct: scalar subquery in expression")
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if tok.kind in ("num", "str"):
            self.advance()
            return ("lit",)
        if tok.kind == "op" and tok.text in "+-" and self.peek(1).kind == "num":
            self.advance()
            self.advance()
            return ("lit",)
        if tok.kind == "op" and tok.text == "*":
            self.advance()
            return ("star", None)
        if tok.kind != "word":
            raise SqlParseError(f"unexpected token {tok.text!r}", tok.pos)
        if tok.text == "null":
            self.advance()
            return ("lit",)
        if tok.text in AGG_FUNCS and self.peek(1).kind == "op" and self.peek(1).text == "(":
            func = self.advance().text
            self.expect_op("(")
            distinct = self.accept_word("distinct")
            if self.peek().kind == "op" and self.peek().text == "*":
                self.advance()
                arg = ("star", None)
            else:
                arg = self.parse_expr()
            self.expect_op(")")
            return ("agg", func, distinct, arg)
        if tok.text in RESERVED:
            raise SqlParseError(f"unsupported construct: {tok.text.upper()}", tok.pos)
        name = self.advance().text
        if self.accept_op("."):
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "*":
                self.advance()
                return ("star", name)
            if nxt.kind != "word":
                raise SqlParseError(f"expected column after {name}.", nxt.pos)
            return ("col", name, self.advance().text)
        return ("col", None, name)

    def parse_order_item(self) -> tuple[tuple, str]:
        expr = self.parse_expr()
        direction = "asc"
        if self.accept_word("desc"):
            direction = "desc"
        elif self.accept_word("asc"):
            direction = "asc"
        return expr, direction


def _expr_has_column(expr: tuple) -> bool:
    kind = expr[0]
    if kind in ("col", "star"):
        return True
    if kind == "agg":
        return True
    if kind == "bin":
        return _expr_has_column(expr[2]) or _expr_has_column(expr[3])
    return False


# --- alias/column resolution ----------------------------------------------


class _Scope:
    """Name-resolution scope for one SELECT level, chained for subqueries."""

    def __init__(self, schema: DatabaseSchema, raw: _RawQuery, parent: _Scope | None):
        self.schema = schema
        self.parent = parent
        self.tables: list[str] = [name for name, _ in raw.tables]
        self.aliases: dict[str, str] = {}
        self.subquery_aliases: set[str] = set()
        for name, alias in raw.tables:
            if alias:
                self.aliases[alias] = name
        for _, alias in raw.subqueries:
            if alias:
                self.subquery_aliases.add(alias)
        self.select_aliases: dict[str, str] = {}

    def resolve_column(self, qualifier: str | None, name: str, allow_select_alias: bool) -> str:
        if qualifier is not None:
            scope: _Scope | None = self
            while scope is not None:
                if qualifier in scope.aliases:
                    return f"{scope.aliases[qualifier]}.{name}"
                if qualifier in scope.tables:
                    return f"{qualifier}.{name}"
                if qualifier in scope.subquery_aliases:
                    return name  # subquery aliases are not stable names; keep bare
                scope = scope.parent
            return f"{qualifier}.{name}"
        scope = self
        while scope is not None:
            owners = sorted(
                {t for t in scope.tables if scope.schema.has_column(t, name)}
            )
            if len(owners) == 1:
                return f"{owners[0]}.{name}"
            if owners:
                return name  # ambiguous: keep bare, alias-independent
            if allow_select_alias and name in scope.select_aliases:
                return scope.select_aliases[name]
            scope = scope.parent
        return name


def _resolve_expr(expr: tuple, scope: _Scope, allow_select_alias: bool = False) -> str:
    kind = expr[0]
    if kind == "lit":
        return "?"
    if kind == "star":
        qualifier = expr[1]
        if qualifier is None:
            return "*"
        resolved = scope.resolve_column(qualifier, "*", False)
        return resolved if resolved.endswith(".*") else "*"
    if kind == "col":
        return scope.resolve_column(expr[1], expr[2], allow_select_alias)
    if kind == "agg":
        _, func, distinct, arg = expr
        inner = _resolve_expr(arg, scope, allow_select_alias)
        return f"{func}({'distinct ' if distinct else ''}{inner})"
    _, op, left, right = expr
    return f"({_resolve_expr(left, scope, allow_select_alias)} {op} {_resolve_expr(right, scope, allow_select_alias)})"


def _resolve_value(value: tuple, scope: _Scope, schema: DatabaseSchema) -> ValueSlot:
    kind = value[0]
    if kind == "masked":
        return MASKED
    if kind == "sub":
        return ValueSlot(kind=SUBQUERY_KIND, subquery=_resolve_query(value[1], schema, scope))
    if kind == "colv":
        return ValueSlot(kind=COLUMN_KIND, column_expr=_resolve_expr(value[1], scope))
    low = _resolve_value(value[1], scope, schema)
    high = _resolve_value(value[2], scope, schema)
    return ValueSlot(kind=RANGE_KIND, bounds=(low, high))


def _resolve_pred(pred: tuple, scope: _Scope, schema: DatabaseSchema,
                  allow_select_alias: bool = False) -> Predicate:
    lhs, op, value = pred
    resolved_value = _resolve_value(value, scope, schema)
    lhs_str = _resolve_expr(lhs, scope, allow_select_alias)
    if op in ("=", "!=") and resolved_value.kind == COLUMN_KIND:
        # symmetric comparisons canonicalize operand order
        rhs_str = resolved_value.column_expr
        if rhs_str < lhs_str:
            lhs_str, rhs_str = rhs_str, lhs_str
            resolved_value = ValueSlot(kind=COLUMN_KIND, column_expr=rhs_str)
    return Predicate(lhs=lhs_str, op=op, value=resolved_value)


def _resolve_query(raw: _RawQuery, schema: DatabaseSchema, parent: _Scope | None) -> SqlUnit:
    scope = _Scope(schema, raw, parent)
    subqueries = tuple(_resolve_query(sub, schema, scope) for sub, _ in raw.subqueries)

    items = []
    for expr, alias in raw.items:
        rendered = _resolve_expr(expr, scope)
        items.append(rendered)
        if alias:
            scope.select_aliases[alias] = rendered

    join_conds = tuple(_resolve_pred(p, scope, schema) for p in raw.join_preds)
    where_preds = tuple(_resolve_pred(p, scope, schema) for p in raw.where_preds)
    group_by = tuple(_resolve_expr(e, scope, allow_select_alias=True) for e in raw.group)
    having_preds = tuple(
        _resolve_pred(p, scope, schema, allow_select_alias=True) for p in raw.having_preds
    )
    order_by = tuple(
        OrderItem(expr=_resolve_expr(e, scope, allow_select_alias=True), direction=d)
        for e, d in raw.order
    )
    set_op = None
    if raw.set_op is not None:
        kind, rhs = raw.set_op
        set_op = (kind, _resolve_query(rhs, schema, parent))

    return SqlUnit.build(
        select_distinct=raw.distinct,
        select_items=tuple(items),
        from_tables=tuple(name for name, _ in raw.tables),
        from_subqueries=subqueries,
        join_conds=join_conds,
        join_connectors=tuple(raw.join_conns),
        where_preds=where_preds,
        where_connectors=tuple(raw.where_conns),
        group_by=group_by,
        having_preds=having_preds,
        having_connectors=tuple(raw.having_conns),
        order_by=order_by,
        limit=MASKED if raw.limit else None,
        set_op=set_op,
    )


def parse_sql(sql: str, schema: DatabaseSchema) -> SqlUnit:
    """Parse SQL into its canonical clause decomposition.

    Raises SqlParseError on lexical errors, unsupported constructs, or
    unbalanced input; never anything else.
    """
    if not sql or not sql.strip():
        raise SqlParseError("empty SQL", 0)
    try:
        raw = _Parser(tokenize(sql)).parse()
        return _resolve_query(raw, schema, None)
    except SqlParseError:
        raise
    except RecursionError:
        raise SqlParseError("query nesting too deep", 0) from None

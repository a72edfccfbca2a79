"""Tokenizer and parser for the SQL subset used by the benchmark gold queries.

Covers SELECT with joins, nested subqueries in FROM/WHERE/HAVING, GROUP
BY/HAVING, ORDER BY/LIMIT, UNION/INTERSECT/EXCEPT, the five aggregates,
DISTINCT, BETWEEN, IN, LIKE and NOT. Anything beyond the subset is rejected
with a structured parse failure rather than half-parsed.

A parsed query is its canonical signature plus the Spider hardness counts.
The signature is normalized aggressively, so that exact-set match reduces to
string equality: identifiers case-folded, table aliases resolved away,
literals masked, and set-valued clauses sorted.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, TypeVar

from ..datasets import DatabaseSchema

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
SET_OPS = ("union", "intersect", "except")


class SqlUnit(NamedTuple):
    """One parsed query.

    ``signature`` renders the clause decomposition: select, from, join
    conditions, where, group by and having compare as sorted sets, AND/OR
    connectors as the set of kinds used, ORDER BY as a sequence with
    direction, LIMIT by presence, and set operations recurse.

    ``components`` are Spider's (component1, component2, others) counts
    behind the hardness rules. component1 counts clause keywords: WHERE,
    GROUP BY, ORDER BY, LIMIT, one per extra FROM source, each OR connector
    and each LIKE condition. component2 counts nesting: subqueries in
    condition values plus set operations. ``others`` counts the extras: more
    than one aggregation, more than one selected column, two or more WHERE
    conditions, two or more GROUP BY columns.
    """

    signature: str
    components: tuple[int, int, int]


class SqlParseError(Exception):
    def __init__(self, reason: str, pos: int = 0):
        super().__init__(f"{reason} (at position {pos})")
        self.reason = reason
        self.pos = pos


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
_T = TypeVar("_T")

# One match per token of ASCII text, after any whitespace. Each token
# alternative takes its longest match with nothing after it, so none gives
# characters back to a shorter token. Where no token starts (a block comment,
# a quoted identifier, a ".5" number, a stray character, an unterminated
# string), the last group takes the whole remainder at once, so no later
# character is tried again, and the string goes through the loop instead.
_TOKEN_RE = re.compile(
    r"\s*(?:--[^\n]*\n?"  # line comment: no group
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"""|('[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))"""
    r"|(<>|!=|>=|<=|[=<>(),;*+%-]|/(?!\*)|\.(?![0-9]))"
    r"|(\S[\s\S]*)"
    r"|\Z)"
)


def tokenize(sql: str) -> tuple[list[str], list[str]]:
    """The kinds ("word", "num", "str", "op", then one "end") and texts of
    the tokens of ``sql``, as two parallel lists.

    Words are lowercased and ``<>`` reads as ``!=``. ASCII text is scanned by
    one regex; any other text, and ASCII text the regex leaves to it, goes
    whole through ``_scan``, the character loop, which alone raises lexical
    errors. Both give the same tokens.
    """
    if sql.isascii():
        kinds: list[str] = []
        texts: list[str] = []
        for word, num, string, op, rest in _TOKEN_RE.findall(sql):
            if word or num or string or op:
                kinds.append("word" if word else "op" if op else "str" if string else "num")
                texts.append(word.lower() or ("!=" if op == "<>" else op) or string or num)
            elif rest:
                break
        else:
            kinds.append("end")
            texts.append("")
            return kinds, texts
    kinds, texts, _ = _scan(sql)
    return kinds, texts


def _scan(sql: str) -> tuple[list[str], list[str], list[int]]:
    """``tokenize`` one character at a time, with each token's position."""
    kinds: list[str] = []
    texts: list[str] = []
    positions: list[int] = []

    def emit(kind: str, text: str, pos: int) -> None:
        kinds.append(kind)
        texts.append(text)
        positions.append(pos)

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
            emit("str", sql[i : j + 1], i)
            i = j + 1
        elif c == "`" or c == "[":
            closing = "`" if c == "`" else "]"
            j = sql.find(closing, i + 1)
            if j < 0:
                raise SqlParseError("unterminated quoted identifier", i)
            emit("word", sql[i + 1 : j].lower(), i)
            i = j + 1
        elif c.isdigit() or (
            c == "."
            and i + 1 < n
            and sql[i + 1].isdigit()
            and (not kinds or kinds[-1] != "word" and texts[-1] != ")")
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
            emit("num", sql[i:j], i)
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            emit("word", sql[i:j].lower(), i)
            i = j
        elif sql.startswith(_TWO_CHAR_OPS, i):
            op = sql[i : i + 2]
            emit("op", "!=" if op == "<>" else op, i)
            i += 2
        elif c in _ONE_CHAR_OPS:
            emit("op", c, i)
            i += 1
        else:
            raise SqlParseError(f"unexpected character {c!r}", i)
    emit("end", "", n)
    return kinds, texts, positions


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
    """Recursive descent over ``tokenize``'s lists. ``i`` indexes the current
    token and never passes the "end" token, so ``i + 1`` is in range while
    the current token is any other."""

    def __init__(self, sql: str, kinds: list[str], texts: list[str]):
        self.sql = sql
        self.kinds = kinds
        self.texts = texts
        self.positions: list[int] | None = None
        self.i = 0
        self.depth = 0

    # -- token helpers --
    def accept_word(self, word: str) -> bool:
        if self.texts[self.i] == word and self.kinds[self.i] == "word":
            self.i += 1
            return True
        return False

    def accept_op(self, op: str) -> bool:
        if self.texts[self.i] == op and self.kinds[self.i] == "op":
            self.i += 1
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            raise self.error(f"expected {word.upper()}, found {self.texts[self.i]!r}")

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}, found {self.texts[self.i]!r}")

    def starts_subquery(self) -> bool:
        i = self.i
        return (self.kinds[i] == "op" and self.texts[i] == "("
                and self.kinds[i + 1] == "word" and self.texts[i + 1] == "select")

    def error(self, reason: str) -> SqlParseError:
        """The failure at the current token. Positions are scanned only here:
        most parses never need one."""
        if self.positions is None:
            self.positions = _scan(self.sql)[2]
        return SqlParseError(reason, self.positions[self.i])

    # -- grammar --
    def parse(self) -> _RawQuery:
        query = self.parse_query()
        while self.accept_op(";"):
            pass
        if self.kinds[self.i] != "end":
            raise self.error(f"trailing input {self.texts[self.i]!r}")
        return query

    def nested(self, parse: Callable[[], _T], what: str) -> _T:
        """``parse()`` one level deeper. Nested queries and parenthesized
        expressions and conditions share one depth bound, so how deep a parse
        recurses depends only on the SQL, never on the caller's stack."""
        if self.depth == _MAX_DEPTH:
            raise self.error(f"{what} nesting too deep")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def parse_query(self) -> _RawQuery:
        return self.nested(self.parse_compound, "query")

    def parse_compound(self) -> _RawQuery:
        query = self.parse_query_operand()
        kind = self.texts[self.i]
        if kind in SET_OPS and self.kinds[self.i] == "word":
            self.i += 1
            if kind == "union":
                self.accept_word("all")
            query.set_op = (kind, self.parse_query())
        return query

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
            if self.kinds[self.i] != "num":
                raise self.error("LIMIT expects a number")
            self.i += 1
            if self.accept_word("offset") or self.accept_op(","):
                raise self.error("unsupported construct: LIMIT with offset")
            query.limit = True
        return query

    def parse_select_item(self) -> tuple[tuple, str | None]:
        return self.parse_expr(), self.parse_optional_alias()

    def parse_from(self, query: _RawQuery) -> None:
        self.parse_from_item(query)
        while True:
            if self.accept_op(","):
                self.parse_from_item(query)
            elif self.kinds[self.i] == "word" and (
                self.texts[self.i] == "join" or self.texts[self.i] in _JOIN_MODIFIERS
            ):
                while self.texts[self.i] in _JOIN_MODIFIERS:
                    self.i += 1
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
        name = self.texts[self.i]
        if self.kinds[self.i] != "word" or name in RESERVED:
            raise self.error(f"expected table name, found {name!r}")
        self.i += 1
        query.tables.append((name, self.parse_optional_alias()))

    def parse_optional_alias(self) -> str | None:
        explicit = self.accept_word("as")
        alias = self.texts[self.i]
        if self.kinds[self.i] == "word" and (explicit or alias not in RESERVED):
            self.i += 1
            return alias
        if explicit:
            raise self.error("expected alias name after AS")
        return None

    def parse_condition(self) -> tuple[list[tuple], list[str]]:
        preds: list[tuple] = []
        conns: list[str] = []
        self.parse_cond_atom(preds, conns)
        while self.texts[self.i] in ("and", "or") and self.kinds[self.i] == "word":
            conns.append(self.texts[self.i])
            self.i += 1
            self.parse_cond_atom(preds, conns)
        return preds, conns

    def parse_cond_atom(self, preds: list[tuple], conns: list[str]) -> None:
        if self.texts[self.i] == "(" and self.kinds[self.i] == "op" and not self.starts_subquery():
            # parenthesized condition group: flatten, keeping connectors; a
            # failure here means the parens wrapped an expression instead
            saved = self.i
            try:
                self.expect_op("(")
                inner_preds, inner_conns = self.nested(self.parse_condition, "expression")
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

    def parse_predicate(self) -> tuple:
        if self.texts[self.i] == "exists" and self.kinds[self.i] == "word":
            raise self.error("unsupported construct: EXISTS")
        lhs = self.parse_expr()
        negate = self.accept_word("not")
        kind, text = self.kinds[self.i], self.texts[self.i]
        if kind == "word" and text == "between":
            self.i += 1
            low = self.parse_value()
            self.expect_word("and")
            high = self.parse_value()
            if low[0] == "masked" and high[0] == "masked":
                value = ("masked",)
            else:
                value = ("range", low, high)
            op = "not between" if negate else "between"
            return (lhs, op, value)
        if kind == "word" and text == "in":
            self.i += 1
            self.expect_op("(")
            if (self.texts[self.i] == "select" and self.kinds[self.i] == "word"
                    or self.starts_subquery()):
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
        if kind == "word" and text == "like":
            self.i += 1
            return (lhs, "not like" if negate else "like", self.parse_value())
        if negate:
            raise self.error("expected BETWEEN, IN or LIKE after NOT")
        if kind == "word" and text == "is":
            self.i += 1
            negated = self.accept_word("not")
            self.expect_word("null")
            return (lhs, "is not null" if negated else "is null", ("masked",))
        if kind == "op" and text in _COMPARE_OPS:
            self.i += 1
            return (lhs, text, self.parse_value())
        raise self.error(f"expected comparison operator, found {text!r}")

    def parse_literal(self) -> None:
        i = self.i
        kind = self.kinds[i]
        if kind in ("num", "str") or (kind == "word" and self.texts[i] == "null"):
            self.i = i + 1
            return
        if kind == "op" and self.texts[i] in "+-" and self.kinds[i + 1] == "num":
            self.i = i + 2
            return
        raise self.error(f"expected literal, found {self.texts[i]!r}")

    def parse_value(self) -> tuple:
        if self.starts_subquery():
            self.i += 1
            sub = self.parse_query()
            self.expect_op(")")
            return ("sub", sub)
        expr = self.parse_expr()
        if _expr_has_column(expr):
            return ("colv", expr)
        return ("masked",)

    # -- expressions --
    def parse_expr(self) -> tuple:
        kinds, texts = self.kinds, self.texts
        expr = self.parse_term()
        while kinds[self.i] == "op" and texts[self.i] in "+-*/%":
            op = texts[self.i]
            self.i += 1
            expr = ("bin", op, expr, self.parse_term())
        return expr

    def parse_term(self) -> tuple:
        kinds, texts = self.kinds, self.texts
        i = self.i
        kind, text = kinds[i], texts[i]
        if kind == "word":
            if text == "null":
                self.i = i + 1
                return ("lit",)
            if text in AGG_FUNCS and texts[i + 1] == "(" and kinds[i + 1] == "op":
                self.i = i + 2
                distinct = self.accept_word("distinct")
                if texts[self.i] == "*" and kinds[self.i] == "op":
                    self.i += 1
                    arg = ("star", None)
                else:
                    arg = self.nested(self.parse_expr, "expression")
                self.expect_op(")")
                return ("agg", text, distinct, arg)
            if text in RESERVED:
                raise self.error(f"unsupported construct: {text.upper()}")
            i += 1
            if texts[i] == "." and kinds[i] == "op":
                i += 1
                if texts[i] == "*" and kinds[i] == "op":
                    self.i = i + 1
                    return ("star", text)
                if kinds[i] != "word":
                    self.i = i
                    raise self.error(f"expected column after {text}.")
                self.i = i + 1
                return ("col", text, texts[i])
            self.i = i
            return ("col", None, text)
        if kind == "op":
            if text == "(":
                if self.starts_subquery():
                    raise self.error("unsupported construct: scalar subquery in expression")
                self.i = i + 1
                expr = self.nested(self.parse_expr, "expression")
                self.expect_op(")")
                return expr
            if text in "+-" and kinds[i + 1] == "num":
                self.i = i + 2
                return ("lit",)
            if text == "*":
                self.i = i + 1
                return ("star", None)
        elif kind == "num" or kind == "str":
            self.i = i + 1
            return ("lit",)
        raise self.error(f"unexpected token {text!r}")

    def parse_order_item(self) -> tuple[tuple, str]:
        expr = self.parse_expr()
        direction = "asc"
        if self.accept_word("desc"):
            direction = "desc"
        elif self.accept_word("asc"):
            direction = "asc"
        return expr, direction


def _expr_has_column(expr: tuple) -> bool:
    # an operator chain's left spine is walked in a loop: only parenthesized
    # operands, which the parse's depth bound counts, recurse
    while expr[0] == "bin":
        if _expr_has_column(expr[3]):
            return True
        expr = expr[2]
    return expr[0] in ("col", "star", "agg")


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
    # an operator chain is a left-deep tree: walk its left spine in a loop, so
    # only parenthesized operands, which the parse's depth bound counts, recurse
    rights = []
    while expr[0] == "bin":
        _, op, expr, right = expr
        rights.append((op, right))
    text = _resolve_expr(expr, scope, allow_select_alias)
    for op, right in reversed(rights):
        text = f"({text} {op} {_resolve_expr(right, scope, allow_select_alias)})"
    return text


def _resolve_value(value: tuple, scope: _Scope, schema: DatabaseSchema) -> tuple[str, int]:
    """The rendered value and the number of subqueries it holds."""
    kind = value[0]
    if kind == "masked":
        return "?", 0
    if kind == "sub":
        return "(" + _resolve_query(value[1], schema, scope).signature + ")", 1
    if kind == "colv":
        return _resolve_expr(value[1], scope), 0
    low, low_subs = _resolve_value(value[1], scope, schema)
    high, high_subs = _resolve_value(value[2], scope, schema)
    return f"{low}..{high}", low_subs + high_subs


def _resolve_pred(pred: tuple, scope: _Scope, schema: DatabaseSchema,
                  allow_select_alias: bool = False) -> tuple[str, str, str, int]:
    """(lhs, op, rendered predicate, subqueries in its value)."""
    lhs, op, value = pred
    rhs, subs = _resolve_value(value, scope, schema)
    lhs = _resolve_expr(lhs, scope, allow_select_alias)
    if op in ("=", "!=") and value[0] == "colv" and rhs < lhs:
        # symmetric comparisons canonicalize operand order
        lhs, rhs = rhs, lhs
    return lhs, op, f"{lhs} {op} {rhs}", subs


def _conditions(name: str, preds: list[tuple[str, str, str, int]], conns: list[str]) -> str:
    kinds = "/".join(sorted(set(conns)))
    return f"{name}[{kinds}]{{" + "|".join(sorted(text for _, _, text, _ in preds)) + "}"


_AGG_RE = re.compile(r"\b(?:" + "|".join(AGG_FUNCS) + r")\(")


def _resolve_query(raw: _RawQuery, schema: DatabaseSchema, parent: _Scope | None) -> SqlUnit:
    scope = _Scope(schema, raw, parent)
    sources = [name for name, _ in raw.tables] + [
        "(" + _resolve_query(sub, schema, scope).signature + ")" for sub, _ in raw.subqueries
    ]
    items = []
    for expr, alias in raw.items:
        rendered = _resolve_expr(expr, scope)
        items.append(rendered)
        if alias:
            scope.select_aliases[alias] = rendered
    join = [_resolve_pred(p, scope, schema) for p in raw.join_preds]
    where = [_resolve_pred(p, scope, schema) for p in raw.where_preds]
    group = sorted(_resolve_expr(e, scope, allow_select_alias=True) for e in raw.group)
    having = [_resolve_pred(p, scope, schema, allow_select_alias=True) for p in raw.having_preds]
    order = [f"{_resolve_expr(e, scope, allow_select_alias=True)} {d}" for e, d in raw.order]

    parts = ["select" + (" distinct" if raw.distinct else "") + "{" + "|".join(sorted(items)) + "}"]
    if sources:
        parts.append("from{" + "|".join(sorted(sources)) + "}")
    if join:
        parts.append("on{" + "|".join(sorted(text for _, _, text, _ in join)) + "}")
    if where:
        parts.append(_conditions("where", where, raw.where_conns))
    if group:
        parts.append("group{" + "|".join(group) + "}")
    if having:
        parts.append(_conditions("having", having, raw.having_conns))
    if order:
        parts.append("order(" + ", ".join(order) + ")")
    if raw.limit:
        parts.append("limit")
    if raw.set_op is not None:
        kind, rhs = raw.set_op
        parts.append(f"{kind}({_resolve_query(rhs, schema, parent).signature})")

    preds = join + where + having
    connectors = raw.join_conns + raw.where_conns + raw.having_conns
    comp1 = (bool(where) + bool(group) + bool(order) + raw.limit + max(len(sources) - 1, 0)
             + connectors.count("or") + sum(op in ("like", "not like") for _, op, _, _ in preds))
    comp2 = sum(subs for _, _, _, subs in preds) + (raw.set_op is not None)
    aggregated = items + [lhs for lhs, _, _, _ in where + having] + group + order
    others = ((sum(len(_AGG_RE.findall(text)) for text in aggregated) > 1)
              + (len(items) > 1) + (len(where) > 1) + (len(group) > 1))
    return SqlUnit(" ".join(parts), (comp1, comp2, others))


def parse_sql(sql: str, schema: DatabaseSchema) -> SqlUnit:
    """Parse SQL into its canonical signature and hardness counts.

    Raises SqlParseError on lexical errors, unsupported constructs, or
    unbalanced input; never anything else.
    """
    if not sql or not sql.strip():
        raise SqlParseError("empty SQL", 0)
    try:
        kinds, texts = tokenize(sql)
        raw = _Parser(sql, kinds, texts).parse()
        return _resolve_query(raw, schema, None)
    except SqlParseError:
        raise
    except RecursionError:
        raise SqlParseError("query nesting too deep", 0) from None

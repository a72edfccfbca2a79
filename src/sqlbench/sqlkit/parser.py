"""Tokenizer and parser for the SQL subset used by the benchmark gold queries,
with the exact-set match and Spider hardness rules over what it parses.

One token regex defines every token; ``tokenize`` reads text with it into
kind and text lists, and the parser walks those by index.

Covers SELECT with joins, nested subqueries in FROM/WHERE/HAVING, GROUP
BY/HAVING, ORDER BY/LIMIT, UNION/INTERSECT/EXCEPT, the five aggregates,
DISTINCT, BETWEEN, IN, LIKE and NOT. Anything beyond the subset is rejected
with a structured parse failure rather than half-parsed.

Parseability never depends on the schema: a parse fails or succeeds on the
SQL text alone, and the schema only resolves the columns of a parse that
succeeded. ``check_sql`` is that schema-free check; ``parse_sql`` runs the
same parse and then resolves it.

A parsed query is its canonical signature plus the Spider hardness counts.
The signature is normalized aggressively, so that exact-set match reduces to
string equality: identifiers case-folded, table aliases resolved away,
literals masked, and set-valued clauses sorted.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, NamedTuple, TypeVar

from ..datasets import DatabaseSchema, DifficultyLabel

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


def em_match(pred: SqlUnit, gold: SqlUnit) -> bool:
    """True iff every clause set of ``pred`` equals the corresponding clause
    set of ``gold``: the signatures are canonical, so this is string equality."""
    return pred.signature == gold.signature


def classify_difficulty(unit: SqlUnit) -> DifficultyLabel:
    """The Spider hardness label of a parsed query, in the ``spider4``
    scheme, the only scheme that is computed: BIRD's ``bird3`` labels are
    dataset-supplied."""
    comp1, comp2, others = unit.components
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


class SqlParseError(Exception):
    def __init__(self, reason: str, pos: int = 0):
        super().__init__(f"{reason} (at position {pos})")
        self.reason = reason
        self.pos = pos


RESERVED = {
    "select", "distinct", "from", "where", "group", "by", "having", "order",
    "limit", "join", "inner", "left", "right", "full", "outer", "cross", "on",
    "as", "and", "or", "not", "in", "like", "between", "is", "null", "asc",
    "desc", "union", "intersect", "except", "all", "exists", "case", "when",
    "then", "else", "end", "cast",
} | set(AGG_FUNCS)

_MAX_DEPTH = 40
_T = TypeVar("_T")

# One match per token, after any whitespace; a comment and the end match
# with no group. Each token alternative takes its longest match with nothing
# after it, so none gives characters back to a shorter one. The fifth group
# is a quoted identifier, in backticks or brackets. The last group holds
# what only ``_scan`` reads: a ".5" number (read by the token before it) and
# a character no token starts with (a stray one, or an unclosed quote or
# comment). It takes the rest of the text with it, so ``findall`` stops
# there. {alpha}, {alnum} and {digit} match what str.isalpha() or "_",
# str.isalnum() or "_" and str.isdigit() accept.
_TOKEN_TEMPLATE = (
    r"\s*(?:--[^\n]*\n?|/(?=\*).*?\*/"
    r"|({alpha}{alnum}*)"
    r"|({digit}+(?:\.{digit}*)?(?:[eE][+-]?{digit}+)?)"
    r"""|('[^']*(?:''[^']*)*'(?!')|"[^"]*(?:""[^"]*)*"(?!"))"""
    r"|(<>|!=|>=|<=|[=<>(),;*+%-]|/(?!\*)|\.(?!{digit}))"
    r"|(`[^`]*`|\[[^\]]*\])"
    r"|(\.{digit}+(?:[eE][+-]?{digit}+)?|\S).*"
    r"|\Z)"
)
# explicit classes, which findall reads about 20 % faster than \w and [^\W\d];
# not re.ASCII, whose \s leaves out "\x1c"-"\x1f", which str.isspace() takes
_ASCII_TOKEN_RE = re.compile(
    _TOKEN_TEMPLATE.format(alpha="[A-Za-z_]", alnum="[A-Za-z0-9_]", digit="[0-9]"), re.S)


@functools.lru_cache(maxsize=16)
def _unicode_token_re(numerals: str) -> re.Pattern:
    r"""The token pattern for text whose numerals that are neither letters
    nor decimal digits are ``numerals``. Over all of Unicode, \w is isalnum()
    or "_", \d is isdecimal() and \s is isspace(), and [^\W\d] is isalpha()
    or "_" but for such numerals ("½", "²"). Those of them that are isdigit()
    ("²", "①") are the only isdigit() characters that \d leaves out."""
    digits = "".join(c for c in numerals if c.isdigit())
    return re.compile(_TOKEN_TEMPLATE.format(
        alpha=rf"[^\W\d{numerals}]", alnum=r"\w", digit=rf"[\d{digits}]"), re.S)


def _token_re(sql: str) -> re.Pattern:
    if sql.isascii():
        return _ASCII_TOKEN_RE
    # from the text's own characters: listing Unicode's numerals takes 0.27 s
    return _unicode_token_re("".join(sorted(
        c for c in set(sql) if c.isnumeric() and not c.isdecimal() and not c.isalpha())))


def tokenize(sql: str) -> tuple[list[str], list[str]]:
    """The kinds ("word", "num", "str", "op", then one "end") and texts of
    the tokens of ``sql``, as two parallel lists.

    Words, quoted identifiers among them, are lowercased, and ``<>`` reads as
    ``!=``. One ``findall`` of the token pattern reads the text, unless it
    reaches the pattern's last group: then ``_scan`` reads the text again,
    one match at a time.
    """
    kinds: list[str] = []
    texts: list[str] = []
    for word, num, string, op, quoted, rare in _token_re(sql).findall(sql):
        if word or num or string or op:
            kinds.append("word" if word else "op" if op else "str" if string else "num")
            texts.append(word.lower() or ("!=" if op == "<>" else op) or string or num)
        elif quoted:
            kinds.append("word")
            texts.append(quoted[1:-1].lower())
        elif rare:
            return _scan(sql)[:2]
    kinds.append("end")
    texts.append("")
    return kinds, texts


_KINDS = (None, "word", "num", "str", "op", "word")
_UNCLOSED = {"'": "unterminated string literal", '"': "unterminated string literal",
             "`": "unterminated quoted identifier", "[": "unterminated quoted identifier",
             "/": "unterminated comment"}


def _scan(sql: str) -> tuple[list[str], list[str], list[int]]:
    """``tokenize`` one match at a time, with each token's position, its
    match offset. Only here are lexical errors raised."""
    match = _token_re(sql).match
    kinds: list[str] = []
    texts: list[str] = []
    positions: list[int] = []
    pos = 0
    while True:
        m = match(sql, pos)
        group = m.lastindex
        pos = m.end(group or 0)
        if group is None:  # a comment, or the end
            if pos == len(sql):
                break
            continue
        text, start = m[group], m.start(group)
        if group < 6:
            kind = _KINDS[group]
            if group == 1:
                text = text.lower()
            elif group == 5:
                text = text[1:-1].lower()
            elif text == "<>":
                text = "!="
        elif text[0] == ".":
            # a number, but after a word or ")" a "." and then a number read
            # from the digit on
            if kinds and (kinds[-1] == "word" or texts[-1] == ")"):
                kind, text, pos = "op", ".", start + 1
            else:
                kind = "num"
        else:
            reason = _UNCLOSED.get(text) or f"unexpected character {text!r}"
            raise SqlParseError(reason, start)
        kinds.append(kind)
        texts.append(text)
        positions.append(start)
    kinds.append("end")
    texts.append("")
    positions.append(len(sql))
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


def _parse_raw(sql: str) -> _RawQuery:
    if not sql or not sql.strip():
        raise SqlParseError("empty SQL", 0)
    try:
        kinds, texts = tokenize(sql)
        return _Parser(sql, kinds, texts).parse()
    except RecursionError:
        raise SqlParseError("query nesting too deep", 0) from None


def check_sql(sql: str) -> None:
    """Check SQL against the clause grammar without a schema.

    Raises the SqlParseError, with the same reason and position, that
    ``parse_sql`` raises on ``sql`` with any schema, and returns None where
    ``parse_sql`` returns a unit.
    """
    _parse_raw(sql)


def parse_sql(sql: str, schema: DatabaseSchema) -> SqlUnit:
    """Parse SQL into its canonical signature and hardness counts.

    Raises SqlParseError on lexical errors, unsupported constructs, or
    unbalanced input; never anything else. Whether it raises, and with what,
    never depends on ``schema``: the schema only resolves the columns of a
    parse that succeeded, so ``check_sql`` answers the same without one.
    """
    raw = _parse_raw(sql)
    try:
        return _resolve_query(raw, schema, None)
    except RecursionError:
        raise SqlParseError("query nesting too deep", 0) from None

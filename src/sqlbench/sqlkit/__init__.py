"""SQL tokenizing, clause-set parsing, exact-set matching and difficulty bucketing."""

from .ast import SqlUnit, clause_signature
from .hardness import classify_difficulty, component_counts
from .match import em_match
from .parser import SqlParseError, parse_sql, tokenize

__all__ = [
    "SqlParseError",
    "SqlUnit",
    "classify_difficulty",
    "clause_signature",
    "component_counts",
    "em_match",
    "parse_sql",
    "tokenize",
]

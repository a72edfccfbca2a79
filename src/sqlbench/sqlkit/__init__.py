"""SQL tokenizing, clause-set parsing, exact-set matching and difficulty bucketing."""

from .hardness import classify_difficulty
from .match import em_match
from .parser import SqlParseError, SqlUnit, parse_sql, tokenize

__all__ = [
    "SqlParseError",
    "SqlUnit",
    "classify_difficulty",
    "em_match",
    "parse_sql",
    "tokenize",
]

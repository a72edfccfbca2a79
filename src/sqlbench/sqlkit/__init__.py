"""SQL tokenizing, clause-set parsing, exact-set matching and difficulty bucketing."""

from .parser import SqlParseError, SqlUnit, check_sql, classify_difficulty, em_match
from .parser import parse_sql, tokenize

__all__ = [
    "SqlParseError",
    "SqlUnit",
    "check_sql",
    "classify_difficulty",
    "em_match",
    "parse_sql",
    "tokenize",
]

"""Text-representation prompt rendering under a fixed token budget.

Prompts put both the database schema and the question into natural language:
an instruction header, the schema block, an optional run of exemplar
Q/Response pairs, and the target question followed by an unanswered response
prefix. Two schema renderings are supported: full sentences and a compact
one-line-per-table form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datasets import DatabaseSchema, ExampleTriple

SENTENCE_STYLE = "sentence"
COMPACT_STYLE = "compact"

_HEADER_AND_PREAMBLE = {
    SENTENCE_STYLE: (
        "I want you to act as a SQL terminal in front of a database and below is"
        " an description of the database schema. Write a response that"
        " appropriately completes the request.\n\n/* Instruction */",
        "Please give SQL statement to answer the following question:",
    ),
    COMPACT_STYLE: (
        "Given the following database schema :\n",
        "Please write queries to answer the following questions:",
    ),
}
_QUESTION_PREFIX = "Q:"
_RESPONSE_PREFIX = "Response:"

DEFAULT_MAX_CONTEXT = 2048
DEFAULT_RESERVED_RESPONSE = 512


class BudgetExceededError(Exception):
    def __init__(self, overflow: int):
        super().__init__(f"prompt exceeds token budget by {overflow} tokens")
        self.overflow = overflow


@dataclass(frozen=True)
class TokenBudget:
    max_context: int = DEFAULT_MAX_CONTEXT
    reserved_response: int = DEFAULT_RESERVED_RESPONSE

    @property
    def available(self) -> int:
        return self.max_context - self.reserved_response


@dataclass(frozen=True)
class PromptTemplate:
    schema_style: str = SENTENCE_STYLE
    include_evidence: bool = False

    def __post_init__(self) -> None:
        if self.schema_style not in _HEADER_AND_PREAMBLE:
            raise ValueError(f"schema_style must be {SENTENCE_STYLE} or {COMPACT_STYLE},"
                             f" got {self.schema_style!r}")


TRP_SENTENCE = PromptTemplate(SENTENCE_STYLE)
TRP_COMPACT = PromptTemplate(COMPACT_STYLE)


@dataclass(frozen=True)
class PromptEnvelope:
    text: str
    shots: int
    exemplar_ids: tuple[int, ...]
    token_estimate: int
    budget: TokenBudget
    target_index: int

    def __post_init__(self) -> None:
        if self.shots != len(self.exemplar_ids):
            raise ValueError("shots must equal the number of exemplars")
        if self.token_estimate > self.budget.available:
            raise ValueError("envelope exceeds its own budget")


def estimate_tokens(text: str) -> int:
    """Deterministic over-estimate of the tokenizer count (bytes/3, rounded up)."""
    return math.ceil(len(text.encode("utf-8")) / 3)


def render_schema(schema: DatabaseSchema, style: str) -> str:
    if style == COMPACT_STYLE:
        lines = [
            f"Table {t.name}, columns = [*,{','.join(t.columns)}]"
            for t in schema.tables
        ]
        return "\n".join(lines)
    if style != SENTENCE_STYLE:
        raise ValueError(f"unknown schema style {style!r}")
    tables = ", ".join(t.name for t in schema.tables)
    lines = [f"Database {schema.db_id} contains tables such as {tables}."]
    for table in schema.tables:
        line = f"Table {table.name} has columns such as {', '.join(table.columns)}."
        pk = schema.primary_key_of(table.name)
        if pk:
            line += f" {pk} is the primary key."
        lines.append(line)
    for fk in schema.foreign_keys:
        lines.append(
            f"The {fk.child.column} of {fk.child.table} is the foreign key"
            f" of {fk.parent.column} of {fk.parent.table}."
        )
    return "\n".join(lines)


def _oneline(text: str) -> str:
    return " ".join(text.split("\n"))


def _question_block(
    example: ExampleTriple, template: PromptTemplate, answer: str | None
) -> str:
    lines = [f"{_QUESTION_PREFIX} {_oneline(example.question)}"]
    if template.include_evidence and example.evidence:
        lines.append(_oneline(example.evidence))
    if answer is None:
        lines.append(f"{_RESPONSE_PREFIX} ")
    else:
        lines.append(f"{_RESPONSE_PREFIX} {_oneline(answer)}")
    return "\n".join(lines)


def _assemble(
    target: ExampleTriple,
    exemplars: list[ExampleTriple],
    template: PromptTemplate,
    schemas: dict[str, DatabaseSchema],
) -> str:
    header, preamble = _HEADER_AND_PREAMBLE[template.schema_style]
    parts = [
        header,
        "\n",
        render_schema(schemas[target.db_id], template.schema_style),
        "\n\n",
        preamble,
        "\n\n",
    ]
    for exemplar in exemplars:
        if exemplar.db_id != target.db_id:
            # cross-domain exemplars carry their own schema, compactly
            parts.append(render_schema(schemas[exemplar.db_id], COMPACT_STYLE))
            parts.append("\n\n")
        parts.append(_question_block(exemplar, template, exemplar.gold_sql))
        parts.append("\n\n")
    parts.append(_question_block(target, template, None))
    return "".join(parts)


def build_prompt(
    target: ExampleTriple,
    exemplars: list[ExampleTriple],
    template: PromptTemplate,
    budget: TokenBudget,
    schemas: dict[str, DatabaseSchema],
) -> PromptEnvelope:
    """Render the prompt, shedding exemplars from the tail if needed to fit.

    The target schema and question are never dropped: if the zero-shot form
    still overflows, the caller gets a BudgetExceededError with the overflow.
    """
    for keep in range(len(exemplars), -1, -1):
        kept = exemplars[:keep]
        text = _assemble(target, kept, template, schemas)
        estimate = estimate_tokens(text)
        if estimate <= budget.available:
            return PromptEnvelope(
                text=text,
                shots=keep,
                exemplar_ids=tuple(e.index for e in kept),
                token_estimate=estimate,
                budget=budget,
                target_index=target.index,
            )
    raise BudgetExceededError(overflow=estimate - budget.available)

"""Text-representation prompt rendering under a fixed token budget.

Prompts put both the database schema and the question into natural language:
an instruction header, the schema block, an optional run of exemplar
Q/Response pairs, and the target question followed by an unanswered response
prefix. Two schema renderings are supported: full sentences and a compact
one-line-per-table form.

A prompt is kept as its parts, in prompt order. Every prompt on one schema
starts with the same header, schema block and preamble, and a cross-domain
exemplar carries its schema's compact block; each is a ``Fragment``, made
once (the schema block once per schema and style), that works out its UTF-8
size and its JSON escape once. The prompt's own text (exemplar and question
blocks) is plain strings between them. A prompt's token estimate adds up the
sizes of its parts, ``PromptEnvelope.text`` joins them, and
``PromptEnvelope.json_text`` joins their escapes: JSON escapes one character
at a time, so the escape of a concatenation is the concatenation of the
escapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring

from .datasets import DatabaseSchema, ExampleTriple

SENTENCE_STYLE = "sentence"
COMPACT_STYLE = "compact"


def _nbytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _json_escape(text: str) -> str:
    """``json.dumps(text, ensure_ascii=False)`` without its quotes."""
    return encode_basestring(text)[1:-1]


class Fragment:
    """Prompt text that many prompts share, with its UTF-8 size and its JSON
    escape each worked out once, when first asked for."""

    def __init__(self, text: str) -> None:
        self.text = text

    @cached_property
    def nbytes(self) -> int:
        return _nbytes(self.text)

    @cached_property
    def escaped(self) -> str:
        return _json_escape(self.text)


# the header, ending in the newline before the schema block, and the
# preamble, with the blank lines around it
_HEADER_AND_PREAMBLE = {
    SENTENCE_STYLE: (
        Fragment("I want you to act as a SQL terminal in front of a database and below is"
                 " an description of the database schema. Write a response that"
                 " appropriately completes the request.\n\n/* Instruction */\n"),
        Fragment("\n\nPlease give SQL statement to answer the following question:\n\n"),
    ),
    COMPACT_STYLE: (
        Fragment("Given the following database schema :\n\n"),
        Fragment("\n\nPlease write queries to answer the following questions:\n\n"),
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


def _text(parts: tuple[Fragment | str, ...]) -> str:
    return "".join(part if isinstance(part, str) else part.text for part in parts)


def _size(parts: tuple[Fragment | str, ...]) -> int:
    """The UTF-8 size of the joined parts."""
    return sum(_nbytes(part) if isinstance(part, str) else part.nbytes for part in parts)


@dataclass(frozen=True)
class PromptEnvelope:
    """A rendered prompt, as its parts, and the exemplars it kept, in prompt
    order."""

    parts: tuple[Fragment | str, ...]
    exemplar_ids: tuple[int, ...]
    token_estimate: int
    target_index: int

    @property
    def text(self) -> str:
        return _text(self.parts)

    @property
    def shots(self) -> int:
        return len(self.exemplar_ids)

    def json_text(self) -> str:
        """``json.dumps(self.text, ensure_ascii=False)`` without its quotes,
        reusing each fragment's escape."""
        return "".join(_json_escape(part) if isinstance(part, str) else part.escaped
                       for part in self.parts)


def _tokens(nbytes: int) -> int:
    return math.ceil(nbytes / 3)


def estimate_tokens(text: str) -> int:
    """Deterministic over-estimate of the tokenizer count (bytes/3, rounded up)."""
    return _tokens(len(text.encode("utf-8")))


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


def _schema_fragment(schema: DatabaseSchema, style: str) -> Fragment:
    """The schema block in ``style``, rendered once per schema object and
    style."""
    fragment = schema.rendered.get(style)
    if fragment is None:
        fragment = schema.rendered[style] = Fragment(render_schema(schema, style))
    return fragment


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
    The estimate adds up the sizes of the prompt's parts, so the number of
    exemplars kept is found without joining any text.
    """
    header, preamble = _HEADER_AND_PREAMBLE[template.schema_style]
    head = (header, _schema_fragment(schemas[target.db_id], template.schema_style), preamble)
    shots: list[tuple[Fragment | str, ...]] = []
    for exemplar in exemplars:
        block = _question_block(exemplar, template, exemplar.gold_sql) + "\n\n"
        if exemplar.db_id == target.db_id:
            shots.append((block,))
        else:
            # cross-domain exemplars carry their own schema, compactly
            schema = _schema_fragment(schemas[exemplar.db_id], COMPACT_STYLE)
            shots.append((schema, "\n\n" + block))
    question = _question_block(target, template, None)
    try:
        size = _size(head) + _nbytes(question)
        sizes = [_size(shot) for shot in shots]
    except UnicodeEncodeError:
        # raised as encoding the whole prompt raises it
        estimate_tokens(_text((*head, *(part for shot in shots for part in shot), question)))
        raise
    keep = len(shots)
    size += sum(sizes)
    while keep and _tokens(size) > budget.available:
        keep -= 1
        size -= sizes[keep]
    estimate = _tokens(size)
    if estimate > budget.available:
        raise BudgetExceededError(overflow=estimate - budget.available)
    return PromptEnvelope(
        parts=(*head, *(part for shot in shots[:keep] for part in shot), question),
        exemplar_ids=tuple(e.index for e in exemplars[:keep]),
        token_estimate=estimate,
        target_index=target.index,
    )

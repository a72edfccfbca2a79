"""Text-representation prompt rendering under a fixed token budget.

Prompts put both the database schema and the question into natural language:
an instruction header, the schema block, an optional run of exemplar
Q/Response pairs, and the target question followed by an unanswered response
prefix. Two schema renderings are supported: full sentences and a compact
one-line-per-table form.

A prompt is built from fragments. Every prompt on one schema starts with the
same header, schema block and preamble, and a cross-domain exemplar carries
its schema's compact block; each is a ``Fragment``, made once per schema and
style, that works out its UTF-8 size and its JSON escape once. A prompt's
token estimate adds up the sizes of its pieces, and
``PromptEnvelope.json_text`` escapes only the text the prompt does not share:
JSON escapes one character at a time, so the escape of a concatenation is the
concatenation of the escapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        "I want you to act as a SQL terminal in front of a database and below is"
        " an description of the database schema. Write a response that"
        " appropriately completes the request.\n\n/* Instruction */\n",
        "\n\nPlease give SQL statement to answer the following question:\n\n",
    ),
    COMPACT_STYLE: (
        "Given the following database schema :\n\n",
        "\n\nPlease write queries to answer the following questions:\n\n",
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
    # where in ``text`` each shared fragment starts, in order
    shared: tuple[tuple[int, Fragment], ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.shots != len(self.exemplar_ids):
            raise ValueError("shots must equal the number of exemplars")
        if self.token_estimate > self.budget.available:
            raise ValueError("envelope exceeds its own budget")

    def json_text(self) -> str:
        """``json.dumps(self.text, ensure_ascii=False)`` without its quotes,
        reusing each shared fragment's escape."""
        pieces, pos = [], 0
        for start, fragment in self.shared:
            if start > pos:
                pieces.append(_json_escape(self.text[pos:start]))
            pieces.append(fragment.escaped)
            pos = start + len(fragment.text)
        pieces.append(_json_escape(self.text[pos:]))
        return "".join(pieces)


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


def _render_fragments(schema: DatabaseSchema, style: str) -> tuple[Fragment, Fragment]:
    """The schema block in ``style``: alone, as a cross-domain exemplar
    carries it, and between the header and the preamble, as a prompt on
    this schema starts."""
    text = render_schema(schema, style)
    header, preamble = _HEADER_AND_PREAMBLE[style]
    return Fragment(text), Fragment(header + text + preamble)


def _schema_fragments(schema: DatabaseSchema, style: str) -> tuple[Fragment, Fragment]:
    """``_render_fragments``, once per schema object and style."""
    fragments = schema.rendered.get(style)
    if fragments is None:
        fragments = schema.rendered[style] = _render_fragments(schema, style)
    return fragments


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


def _join(
    head: Fragment, shots: list[tuple[Fragment | None, str]], question: str
) -> tuple[str, tuple[tuple[int, Fragment], ...]]:
    """The prompt text, and where in it each shared fragment starts."""
    texts, shared, offset = [head.text], [(0, head)], len(head.text)
    for schema, block in shots:
        if schema is not None:
            shared.append((offset, schema))
            texts.append(schema.text)
            offset += len(schema.text)
        texts.append(block)
        offset += len(block)
    texts.append(question)
    return "".join(texts), tuple(shared)


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
    The estimate adds up the sizes of the prompt's pieces, so the number of
    exemplars kept is found before the text is joined, once.
    """
    head = _schema_fragments(schemas[target.db_id], template.schema_style)[1]
    shots: list[tuple[Fragment | None, str]] = []  # (own schema, question block)
    for exemplar in exemplars:
        block = _question_block(exemplar, template, exemplar.gold_sql) + "\n\n"
        if exemplar.db_id == target.db_id:
            shots.append((None, block))
        else:
            # cross-domain exemplars carry their own schema, compactly
            schema = _schema_fragments(schemas[exemplar.db_id], COMPACT_STYLE)[0]
            shots.append((schema, "\n\n" + block))
    question = _question_block(target, template, None)
    try:
        size = head.nbytes + _nbytes(question)
        sizes = [(0 if schema is None else schema.nbytes) + _nbytes(block)
                 for schema, block in shots]
    except UnicodeEncodeError:
        # raised as encoding the whole prompt raises it
        estimate_tokens(_join(head, shots, question)[0])
        raise
    keep = len(shots)
    size += sum(sizes)
    while keep and _tokens(size) > budget.available:
        keep -= 1
        size -= sizes[keep]
    estimate = _tokens(size)
    if estimate > budget.available:
        raise BudgetExceededError(overflow=estimate - budget.available)
    text, shared = _join(head, shots[:keep], question)
    return PromptEnvelope(
        text=text,
        shots=keep,
        exemplar_ids=tuple(e.index for e in exemplars[:keep]),
        token_estimate=estimate,
        budget=budget,
        target_index=target.index,
        shared=shared,
    )

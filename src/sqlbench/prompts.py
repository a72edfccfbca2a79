"""Text-representation prompt rendering under a fixed token budget.

Prompts put both the database schema and the question into natural language:
an instruction header, the schema block, an optional run of exemplar
Q/Response pairs, and the target question followed by an unanswered response
prefix. Two schema renderings are supported: full sentences and a compact
one-line-per-table form.

A prompt is kept as its parts, in prompt order: the head (header, schema
block and preamble), each exemplar's block, and the question block. The head
is one ``Fragment`` per schema and style, and a cross-domain exemplar carries
its schema's compact block, a ``Fragment`` too; each is made once and works
out its UTF-8 size and its JSON escape once. So a zero-shot prompt is two
parts, its head and its question. A prompt's token estimate adds up the
sizes of its parts, ``PromptEnvelope.text`` joins them, and
``PromptEnvelope.json_text`` joins their escapes: JSON escapes one character
at a time, so the escape of a concatenation is the concatenation of the
escapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring
from typing import Sequence

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


def _text(parts: Sequence[Fragment | str]) -> str:
    return "".join([part if isinstance(part, str) else part.text for part in parts])


@dataclass(slots=True)
class PromptEnvelope:
    """A rendered prompt, as its parts, and the exemplars it kept, in prompt
    order. Made once per prompt and never changed. Not frozen: a frozen
    dataclass's ``__init__`` sets each field through ``object.__setattr__``,
    which took a quarter of a zero-shot prompt's render."""

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
        return "".join([_json_escape(part) if isinstance(part, str) else part.escaped
                        for part in self.parts])


def _tokens(nbytes: int) -> int:
    return -(-nbytes // 3)  # nbytes / 3, rounded up


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


def _head(schema: DatabaseSchema, style: str) -> Fragment:
    """The header, schema block and preamble of every prompt on ``schema``
    in ``style``, made once per schema object and style. Only the compact
    block, which cross-domain exemplars also carry, is kept by itself."""
    head = schema.rendered.get((style, "head"))
    if head is None:
        header, preamble = _HEADER_AND_PREAMBLE[style]
        block = (_schema_fragment(schema, style).text if style == COMPACT_STYLE
                 else render_schema(schema, style))
        head = schema.rendered[style, "head"] = Fragment(header + block + preamble)
    return head


def _oneline(text: str) -> str:
    return text.replace("\n", " ")


def _question_block(
    example: ExampleTriple, template: PromptTemplate, answer: str | None
) -> str:
    evidence = (_oneline(example.evidence) + "\n"
                if template.include_evidence and example.evidence else "")
    response = "" if answer is None else _oneline(answer)
    return (f"{_QUESTION_PREFIX} {_oneline(example.question)}\n"
            f"{evidence}{_RESPONSE_PREFIX} {response}")


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
    parts: list[Fragment | str] = [_head(schemas[target.db_id], template.schema_style)]
    ends = [1]  # the head and the first i exemplars are parts[:ends[i]]
    for exemplar in exemplars:
        block = _question_block(exemplar, template, exemplar.gold_sql) + "\n\n"
        if exemplar.db_id != target.db_id:
            # cross-domain exemplars carry their own schema, compactly
            parts.append(_schema_fragment(schemas[exemplar.db_id], COMPACT_STYLE))
            block = "\n\n" + block
        parts.append(block)
        ends.append(len(parts))
    parts.append(_question_block(target, template, None))
    try:
        sizes = [_nbytes(part) if isinstance(part, str) else part.nbytes for part in parts]
    except UnicodeEncodeError:
        # raised as encoding the whole prompt raises it
        estimate_tokens(_text(parts))
        raise
    size = sum(sizes)
    available = budget.available
    keep = len(exemplars)
    estimate = _tokens(size)
    while keep and estimate > available:
        keep -= 1
        size -= sum(sizes[ends[keep]:ends[keep + 1]])
        estimate = _tokens(size)
    if estimate > available:
        raise BudgetExceededError(overflow=estimate - available)
    del parts[ends[keep]:-1]  # the exemplars shed
    return PromptEnvelope(tuple(parts), tuple([e.index for e in exemplars[:keep]]),
                          estimate, target.index)

"""Prompt planning, fine-tuning corpus export and training-config profiles.

``plan_prompts`` is the one select-then-render loop, shared by prediction
and corpus export. Corpora are line-delimited instruction/output records in
the prompt format, each with a shot count drawn from a choice set; training
profiles are flat key-value files handed to external fine-tuning tooling. No
training happens here.

A corpus line is exactly ``json.dumps(record, ensure_ascii=False)``, but it
is written from the prompt's parts without joining the prompt text: the
fragments many prompts share (a zero-shot prompt is its schema's head
fragment and its question) are escaped once (``PromptEnvelope.json_text``),
and only each record's own text is escaped per record. Lines are written
``BLOCK_LINES`` at a time, one write per block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator

import yaml

from .artifacts import writing
from .datasets import DatabaseSchema, DatasetBundle, ExampleTriple
from .prompts import (
    BudgetExceededError,
    PromptEnvelope,
    PromptTemplate,
    TokenBudget,
    build_prompt,
)
from .selection import (
    RANDOM,
    SelectionPolicy,
    SimilarityIndex,
    build_index,
    mix_shots,
    select,
)

logger = logging.getLogger(__name__)

# corpus lines per write: fewer writes, and a block small enough not to
# raise the stage's peak memory
BLOCK_LINES = 8


@dataclass
class CorpusSummary:
    records: int
    shot_histogram: dict[int, int]
    token_min: int
    token_max: int
    token_mean: float
    skipped: list[dict]

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "shot_histogram": {str(k): v for k, v in sorted(self.shot_histogram.items())},
            "token_estimate": {
                "min": self.token_min,
                "max": self.token_max,
                "mean": round(self.token_mean, 3),
            },
            "skipped": self.skipped,
        }


def plan_prompts(
    targets: list[ExampleTriple],
    pool: list[ExampleTriple],
    policy: SelectionPolicy,
    shot_plan: dict[int, int],
    schemas: dict[str, DatabaseSchema],
    template: PromptTemplate,
    budget: TokenBudget,
    index: SimilarityIndex | None = None,
    corpus_mode: bool = False,
) -> Iterator[tuple[ExampleTriple, PromptEnvelope | BudgetExceededError]]:
    """Select exemplars from ``pool`` and render the prompt of each target.

    ``shot_plan`` maps each target's index to its k; ``policy`` supplies the
    strategy and seed. The pool's similarity index is built only when a
    similarity strategy plans some k > 0. Yields each target, in order, with
    its envelope, or with the error of a prompt over budget even at k=0.
    """
    if index is None and policy.strategy != RANDOM and any(
        shot_plan[target.index] for target in targets
    ):
        index = build_index(pool, schemas)
    policies: dict[int, SelectionPolicy] = {}
    for target in targets:
        k = shot_plan[target.index]
        exemplars: list[ExampleTriple] = []
        if k:
            if k not in policies:
                policies[k] = replace(policy, k=k)
            exemplars = select(target, pool, policies[k], index=index, corpus_mode=corpus_mode)
        try:
            envelope = build_prompt(target, exemplars, template, budget, schemas)
        except BudgetExceededError as exc:
            yield target, exc
            continue
        if len(envelope.exemplar_ids) < len(exemplars):
            logger.warning(
                "example %d: budget truncated exemplars %d -> %d",
                target.index, len(exemplars), envelope.shots,
            )
        yield target, envelope


def record_line(example: ExampleTriple, envelope: PromptEnvelope) -> str:
    """``json.dumps(record, ensure_ascii=False)`` of the example's corpus
    record, with the instruction escaped from the prompt's parts. A list of
    ints prints as JSON does."""
    ids = envelope.exemplar_ids
    return (f'{{"instruction": "{envelope.json_text()}",'
            f' "output": {encode_basestring(example.gold_sql)},'
            f' "meta": {{"example_index": {example.index}, "shots": {len(ids)},'
            f' "exemplar_ids": {list(ids)}}}}}')


def _write_lines(fp, block: list[str]) -> None:
    """Write the lines of ``block``, each ended, in one write, and empty it."""
    if block:
        block.append("")  # the last line's newline
        fp.write("\n".join(block))
        block.clear()


def export_corpus(
    split: list[ExampleTriple],
    bundle: DatasetBundle,
    template: PromptTemplate,
    policy: SelectionPolicy,
    choices: tuple[int, ...],
    out: str | Path,
    budget: TokenBudget | None = None,
    index: SimilarityIndex | None = None,
) -> CorpusSummary:
    """Write one instruction/output record per example, its shot count drawn
    from ``choices`` (see ``mix_shots``).

    Exemplars are drawn from the split itself, never the example itself.
    Examples that exceed the budget even at zero shots are reported as
    skipped, never silently dropped. Fixed seeds make the output
    byte-identical across runs.
    """
    plan = plan_prompts(
        split, split, policy, mix_shots(policy, split, choices), bundle.schemas,
        template, budget or TokenBudget(), index=index, corpus_mode=True,
    )
    histogram: dict[int, int] = {}
    token_estimates: list[int] = []
    skipped: list[dict] = []
    block: list[str] = []  # lines not yet written
    with writing(out) as fp:
        for example, envelope in plan:
            if isinstance(envelope, BudgetExceededError):
                skipped.append(
                    {
                        "example_index": example.index,
                        "reason": f"over budget by {envelope.overflow} tokens at k=0",
                    }
                )
                continue
            block.append(record_line(example, envelope))
            if len(block) == BLOCK_LINES:
                _write_lines(fp, block)
            shots = len(envelope.exemplar_ids)
            histogram[shots] = histogram.get(shots, 0) + 1
            token_estimates.append(envelope.token_estimate)
        _write_lines(fp, block)
    return CorpusSummary(
        records=len(token_estimates),
        shot_histogram=histogram,
        token_min=min(token_estimates) if token_estimates else 0,
        token_max=max(token_estimates) if token_estimates else 0,
        token_mean=sum(token_estimates) / len(token_estimates) if token_estimates else 0.0,
        skipped=skipped,
    )


LORA = "lora"
QLORA = "qlora"


@dataclass(frozen=True)
class TrainProfile:
    method: str = LORA
    lora_rank: int = 64
    lora_alpha: int = 32
    learning_rate: float = 0.0002
    epochs: int = 8
    max_source_length: int = 2048
    max_target_length: int = 512
    model_name: str = "llama2-7b"

    def __post_init__(self) -> None:
        if self.method not in (LORA, QLORA):
            raise ValueError(f"unknown tuning method {self.method!r}")
        for name in ("lora_rank", "lora_alpha", "learning_rate", "epochs",
                     "max_source_length", "max_target_length"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def emit_train_profile(profile: TrainProfile, out: str | Path) -> Path:
    """Write the profile as a flat key-value file for external trainers; it
    appears whole or not at all."""
    with writing(out) as fp:
        yaml.safe_dump(asdict(profile), fp, sort_keys=True)
    return Path(out)

"""Workload definitions shared by the generator, the runner and the tests.

Every workload runs the same four CLI stages (ingest, build-corpus, predict,
evaluate) so that each one reports every end-to-end metric; what differs is
the data and which stage carries the weight:

- ``zeroshot-pipeline``: Spider-scale data, zero-shot prediction and EM+EX
  scoring. Request overhead dominates ``predict`` and ``sqlkit`` plus
  ``execution`` dominate ``evaluate``; no exemplar is ever selected.
- ``fewshot-predict``: BIRD-scale pool with evidence, 3-shot
  question-similarity prediction. Selection over the pool dominates
  ``predict``; scoring is switched off, so it is the no-change workload for
  scoring optimisations.
- ``dual-corpus``: a small Spider-style split that is both the targets and
  the pool of a dual-similarity corpus. Parsing every candidate's gold for
  every target (O(N^2)) dominates ``build-corpus``; scoring is EM only, so
  nothing executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

STAGES = ("ingest", "build-corpus", "predict", "evaluate")


@dataclass(frozen=True)
class Size:
    train: int
    dev: int
    train_dbs: int
    dev_dbs: int


@dataclass(frozen=True)
class Workload:
    name: str
    dialect: str
    sizes: dict[str, Size]
    # the split the predict/evaluate stages target and the corpus split
    target_split: str
    corpus_split: str
    corpus_args: tuple[str, ...]
    shots: int
    prompt: dict = field(default_factory=dict)
    selection: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    # share of dev targets per planted answer label (the rest are gold echoes)
    plants: dict[str, float] = field(default_factory=dict)
    # per-request delay of the stub endpoint, seconds
    stub_delay_s: float = 0.003

    def stages(self, config: str, output_dir: str, run_id: str) -> list[tuple[str, list[str]]]:
        """(stage name, argv for ``sqlbench.cli.main``) in pipeline order."""
        common = ["--config", config, "--output-dir", output_dir, "--run-id", run_id]
        predictions = (f"{output_dir}/{run_id}/predictions/"
                       f"{self.target_split}_shots{self.shots}.jsonl")
        return [
            ("ingest", ["ingest", *common]),
            ("build-corpus", ["build-corpus", *common, "--split", self.corpus_split,
                              *self.corpus_args]),
            ("predict", ["predict", *common, "--split", self.target_split,
                         "--shots", str(self.shots)]),
            ("evaluate", ["evaluate", *common, "--split", self.target_split,
                          "--predictions", predictions]),
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="zeroshot-pipeline",
            dialect="spider",
            sizes={
                # Spider's train size; half its 1034 dev targets, so that a
                # run holds several repetitions of every stage
                "full": Size(train=7000, dev=517, train_dbs=140, dev_dbs=20),
                "tiny": Size(train=80, dev=40, train_dbs=4, dev_dbs=2),
            },
            target_split="dev",
            corpus_split="train",
            corpus_args=("--k", "0"),
            shots=0,
            prompt={"schema_style": "sentence"},
            selection={"strategy": "random", "k": 0, "pool": "train"},
            metrics={"em": True, "ex": True, "ves": False, "timeout_s": 30, "workers": 2},
            plants={"em-miss": 0.08, "wrong-literal": 0.08, "unparseable": 0.06,
                    "non-executable": 0.06},
        ),
        Workload(
            name="fewshot-predict",
            dialect="bird",
            sizes={
                # BIRD's train size; few targets, as each one's selection
                # scans the whole pool and a run must hold several repetitions
                "full": Size(train=9400, dev=24, train_dbs=70, dev_dbs=11),
                "tiny": Size(train=120, dev=12, train_dbs=4, dev_dbs=2),
            },
            target_split="dev",
            corpus_split="train",
            corpus_args=("--k", "0"),
            shots=3,
            prompt={"schema_style": "compact", "include_evidence": True},
            selection={"strategy": "question-similarity", "k": 3, "pool": "train"},
            metrics={"em": False, "ex": False, "ves": False, "timeout_s": 30, "workers": 2},
        ),
        Workload(
            name="dual-corpus",
            dialect="spider",
            sizes={
                # build-corpus grows with the square of this size; 100 keeps
                # several repetitions within a run
                "full": Size(train=100, dev=0, train_dbs=2, dev_dbs=0),
                "tiny": Size(train=24, dev=0, train_dbs=2, dev_dbs=0),
            },
            target_split="train",
            corpus_split="train",
            corpus_args=("--random-shot", "--k", "3"),
            shots=0,
            prompt={"schema_style": "sentence"},
            selection={"strategy": "dual-similarity", "k": 3, "pool": "train"},
            metrics={"em": True, "ex": False, "ves": False, "timeout_s": 30, "workers": 2},
        ),
    )
}

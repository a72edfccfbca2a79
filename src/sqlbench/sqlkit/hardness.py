"""Difficulty bucketing for parsed queries, replicating the Spider hardness rules.

``classify_difficulty`` returns a label of the ``spider4`` scheme, the only
scheme that is computed: BIRD's ``bird3`` labels are dataset-supplied. The
label is a pure function of the parsed structure: whitespace, casing and
literal values never change it.
"""

from __future__ import annotations

from ..datasets import DifficultyLabel
from .parser import SqlUnit


def classify_difficulty(unit: SqlUnit) -> DifficultyLabel:
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

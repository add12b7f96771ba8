"""Attainable-rank intervals under partial information.

§V frames the screening as "decision making with partial information"
(the paper's refs. [21]-[25]).  Beyond the non-dominated /
potentially-optimal dichotomy, the same machinery bounds every
alternative's *attainable rank* across the whole feasible
weight/utility polytope:

* alternative ``a``'s **best attainable rank** is ``1 + (number of
  alternatives that necessarily outrank a)`` — those whose overall
  utility exceeds ``a``'s for every admissible parameter combination;
* its **worst attainable rank** is ``n - (number of alternatives a
  necessarily outranks)``.

"Necessarily outranks" is exactly pairwise dominance, so the
bounds come straight from the dominance matrix.  They bracket every
rank the Monte Carlo simulation can produce — a useful consistency
check (asserted in the tests) and a cheaper, assumption-free companion
to Fig. 10's empirical rank ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .dominance import dominance_matrix

__all__ = ["RankInterval", "rank_intervals"]


@dataclass(frozen=True)
class RankInterval:
    """The ranks one alternative can attain over the feasible polytope."""

    name: str
    best: int
    worst: int

    def __post_init__(self) -> None:
        if not 1 <= self.best <= self.worst:
            raise ValueError(
                f"invalid rank interval [{self.best}, {self.worst}] for "
                f"{self.name!r}"
            )

    @property
    def width(self) -> int:
        return self.worst - self.best

    def contains(self, rank: int) -> bool:
        return self.best <= rank <= self.worst


def rank_intervals(
    model,
    matrix: Optional[np.ndarray] = None,
) -> Dict[str, RankInterval]:
    """Best/worst attainable rank per alternative.

    ``model`` is anything carrying ``alternative_names`` and the
    compiled envelopes — an :class:`~repro.core.model.AdditiveModel`, a
    :class:`~repro.core.engine.BatchEvaluator` (the engine's one-problem
    view) or a :class:`~repro.core.engine.CompiledProblem`; the
    dominance matrix comes from the engine's closed-form screen.
    ``matrix`` may pass a precomputed dominance matrix (``D[i, j]`` true
    iff alternative ``i`` dominates ``j``) to avoid recomputing it.
    """
    if matrix is None:
        matrix = dominance_matrix(model)
    matrix = np.asarray(matrix, dtype=bool)
    names = model.alternative_names
    n = len(names)
    if matrix.shape != (n, n):
        raise ValueError(
            f"dominance matrix shape {matrix.shape} does not match "
            f"{n} alternatives"
        )
    dominated_by = matrix.sum(axis=0)  # how many outrank each column
    dominates = matrix.sum(axis=1)     # how many each row outranks
    return {
        name: RankInterval(
            name=name,
            best=int(1 + dominated_by[i]),
            worst=int(n - dominates[i]),
        )
        for i, name in enumerate(names)
    }

"""The additive multi-attribute utility model (§IV).

The paper evaluates every candidate with

    u(O_i) = sum_j  w_j * u_ij(x_ij)

and, because both weights and component utilities are imprecise, GMAA
reports three readings per alternative:

* **minimum** overall utility — lower weight bounds x lower utility
  envelopes,
* **average** overall utility — normalised average weights x average
  component utilities (interval midpoints),
* **maximum** overall utility — upper weight bounds x upper envelopes.

The weight *bounds* are not renormalised, which is why Fig. 6 shows
maxima above 1 (e.g. 1.1666): the upper bounds of the Fig. 5 intervals
sum to about 1.19.  "The ranking of MM ontologies is based on average
overall utilities, and minimum and maximum overall utilities give
further insight into the robustness of this ranking."

:class:`AdditiveModel` precomputes the utility matrices once so the
sensitivity analyses (stability sweeps, dominance screening, 10,000-run Monte
Carlo) evaluate weight vectors with a single matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .engine import BatchEvaluator, CompiledProblem, compile_problem
from .interval import Interval
from .problem import DecisionProblem

__all__ = ["AdditiveModel", "Evaluation", "RankedAlternative", "evaluate"]


@dataclass(frozen=True)
class RankedAlternative:
    """One row of a GMAA ranking display (Fig. 6)."""

    name: str
    minimum: float
    average: float
    maximum: float
    rank: int

    @property
    def interval(self) -> Interval:
        return Interval(self.minimum, self.maximum)


@dataclass(frozen=True)
class Evaluation:
    """The outcome of evaluating a decision problem.

    ``rows`` are sorted by decreasing average overall utility, matching
    the ranking the paper bases its selection on.
    """

    problem_name: str
    rows: Tuple[RankedAlternative, ...]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def names_by_rank(self) -> Tuple[str, ...]:
        return tuple(row.name for row in self.rows)

    @property
    def best(self) -> RankedAlternative:
        return self.rows[0]

    def row(self, name: str) -> RankedAlternative:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(f"no alternative named {name!r} in evaluation")

    def rank_of(self, name: str) -> int:
        return self.row(name).rank

    def average_of(self, name: str) -> float:
        return self.row(name).average

    def utility_interval(self, name: str) -> Interval:
        return self.row(name).interval

    def top(self, k: int) -> Tuple[RankedAlternative, ...]:
        return self.rows[:k]

    def overlap_count(self) -> int:
        """How many adjacent-rank pairs have overlapping utility bands.

        §IV: "the output utility intervals are very overlapped", which
        is what motivates the sensitivity analyses.
        """
        return sum(
            1
            for a, b in zip(self.rows, self.rows[1:])
            if a.interval.overlaps(b.interval)
        )


class AdditiveModel:
    """Matrix form of a decision problem's additive utility model.

    Rows are alternatives (in table order), columns attributes (in
    hierarchy leaf order).  ``u_low``/``u_avg``/``u_up`` hold the
    component-utility envelopes; ``w_low``/``w_avg``/``w_up`` the
    attribute-weight bounds and normalised averages.

    The arrays are lowered once by :func:`repro.core.engine.compile_problem`
    and shared with the batch engine; every evaluation method delegates
    to a :class:`repro.core.engine.BatchEvaluator` over that compiled
    form (the ``P = 1`` view of the stacked kernel).
    """

    def __init__(
        self,
        problem: DecisionProblem,
        compiled: Optional[CompiledProblem] = None,
    ) -> None:
        self.problem = problem
        if compiled is None:
            compiled = compile_problem(problem)
        elif (
            compiled.alternative_names != problem.table.alternative_names
            or compiled.attribute_names != problem.hierarchy.attribute_names
        ):
            # A compiled form built from a different-but-equal problem
            # object (e.g. read off a workspace's .npz artifact) is
            # fine; only reject structural mismatches.
            raise ValueError("compiled form belongs to a different problem")
        self.compiled = compiled
        self._evaluator = BatchEvaluator(compiled)
        self.attribute_names: Tuple[str, ...] = compiled.attribute_names
        self.alternative_names: Tuple[str, ...] = compiled.alternative_names
        self.u_low = compiled.u_low
        self.u_avg = compiled.u_avg
        self.u_up = compiled.u_up
        self.w_low = compiled.w_low
        self.w_up = compiled.w_up
        self.w_avg = compiled.w_avg

    # ------------------------------------------------------------------
    @property
    def n_alternatives(self) -> int:
        return len(self.alternative_names)

    @property
    def n_attributes(self) -> int:
        return len(self.attribute_names)

    @property
    def evaluator(self) -> BatchEvaluator:
        """The batch engine bound to this model's compiled form."""
        return self._evaluator

    def minimum_utilities(self) -> np.ndarray:
        return self._evaluator.minimum_utilities()

    def average_utilities(self) -> np.ndarray:
        return self._evaluator.average_utilities()

    def maximum_utilities(self) -> np.ndarray:
        return self._evaluator.maximum_utilities()

    def utilities_for_weights(self, weights: np.ndarray) -> np.ndarray:
        """Overall utilities for an explicit weight vector.

        Component utilities are taken at their class averages, which is
        how §V's Monte Carlo treats them ("changes can be made to the
        weights").  ``weights`` may be a single vector or a matrix of
        shape (n_samples, n_attributes).
        """
        return self._evaluator.utilities_for_weights(weights)

    def evaluate(self) -> Evaluation:
        """The Fig. 6 ranking: min/avg/max per alternative, by average."""
        return self._evaluator.evaluate()


def evaluate(problem: DecisionProblem, objective: "str | None" = None) -> Evaluation:
    """Evaluate a decision problem, optionally by a single objective.

    ``objective`` selects a non-root node to rank by (Fig. 7's
    "ranking for Understandability"); ``None`` ranks by the overall
    objective.
    """
    if objective is not None and objective != problem.hierarchy.root.name:
        problem = problem.restricted_to(objective)
    return AdditiveModel(problem).evaluate()

"""Dominance and potential optimality with imprecise information (§V).

The second sensitivity analysis GMAA offers is "the assessment of
non-dominated and potentially optimal alternatives" — decision making
with partial information in the sense of the paper's refs. [21]-[25].
In the case study it discards only 3 of the 23 ontologies: "20 out of
the 23 MM ontologies are non-dominated and potentially optimal".

Formulation (following Mateos, Ríos-Insua & Jiménez [25]):

* The feasible weights are ``W = { w : w_j in [low_j, up_j], sum w_j = 1 }``
  — the elicited attribute-weight intervals intersected with the
  simplex.
* Component utilities are imprecise too; because every ``w_j >= 0``,
  the extremes over the utility classes decouple per attribute, so

    a dominates b   iff   min_{w in W} sum_j w_j (uLow_aj - uUp_bj) >= 0
                          (and the two alternatives are not identical),

  which is a linear program in ``w``.
* ``a`` is *potentially optimal* among a set ``S`` iff

    max t  s.t.  sum_j w_j (uUp_aj - uLow_bj) >= t  for all b in S, b != a,
                 w in W

  has optimum ``t >= 0`` — there is some admissible combination of
  weights and utilities making ``a`` best.

The dominance LP's feasible set is always the weight box intersected
with the simplex, so its optimum has an exact greedy (fractional
knapsack) solution: :func:`dominance_matrix` screens every pair of a
problem at once through the closed-form kernel
:func:`repro.core.engine.stacked_dominance`.  scipy's HiGHS solver
runs only where a real LP remains — :func:`potentially_optimal`'s
max-min over rivals — and in :func:`dominates`, the per-pair LP
statement of the rule kept as an independent oracle for the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .engine import (
    _FEAS_TOL,
    _as_compiled,
    box_simplex_argmin,
    box_simplex_minimum,
    stacked_dominance,
    weight_polytope,
)
from .model import AdditiveModel

__all__ = [
    "DominanceResult",
    "dominance_matrix",
    "dominates",
    "non_dominated",
    "potentially_optimal",
    "screen",
]


def _solve_lp(
    c: np.ndarray,
    a_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: Sequence[Tuple[float, float]],
):
    from scipy.optimize import linprog

    return linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )


def dominates(model, a: str, b: str) -> bool:
    """Does alternative ``a`` dominate ``b`` over the imprecise model?

    True iff the worst-case utility difference (utilities of ``a`` at
    their lower envelopes, ``b`` at its upper envelopes, weights chosen
    adversarially in ``W``) is still non-negative — and the adversarial
    *best* case is strictly positive, so identical alternatives do not
    dominate each other.

    Solves the two LPs with HiGHS, one pair at a time: the independent
    oracle the closed-form :func:`dominance_matrix` is tested against.
    ``model`` is an :class:`~repro.core.model.AdditiveModel` or anything
    else :func:`dominance_matrix` accepts.
    """
    compiled = _as_compiled(model)
    names = compiled.alternative_names
    ia, ib = names.index(a), names.index(b)
    diff = compiled.u_low[ia] - compiled.u_up[ib]
    a_eq, b_eq, bounds = weight_polytope(compiled)
    worst = _solve_lp(diff, None, None, a_eq, b_eq, bounds)
    # A near-degenerate polytope (interval widths ~1e-9) can be thinner
    # than the solver's feasibility tolerance; the box-simplex greedy is
    # exact for this LP structure, so fall back instead of raising.
    worst_value = (
        float(worst.fun)
        if worst.success
        else float(box_simplex_minimum(diff, bounds))
    )
    if worst_value < -_FEAS_TOL:
        return False
    # Strictness check: u(a) must be able to exceed u(b) somewhere.
    best_diff = compiled.u_up[ia] - compiled.u_low[ib]
    best = _solve_lp(-best_diff, None, None, a_eq, b_eq, bounds)
    best_value = (
        -float(best.fun)
        if best.success
        else -float(box_simplex_minimum(-best_diff, bounds))
    )
    return best_value > _FEAS_TOL


def dominance_matrix(model) -> np.ndarray:
    """Boolean matrix D with ``D[i, j]`` iff alternative i dominates j.

    ``model`` is an :class:`~repro.core.model.AdditiveModel`, a
    :class:`~repro.core.engine.CompiledProblem`, a
    :class:`~repro.core.engine.BatchEvaluator` (the engine's one-problem
    view) or a :class:`~repro.core.problem.DecisionProblem`.  Runs the
    closed-form kernel :func:`repro.core.engine.stacked_dominance` on
    the problem's ``P = 1`` view: every pair is settled exactly,
    without an LP.
    """
    c = _as_compiled(model)
    return stacked_dominance(
        c.u_low[None], c.u_up[None], c.w_low[None], c.w_up[None]
    )[0]


def non_dominated(model: AdditiveModel) -> Tuple[str, ...]:
    """Alternatives not dominated by any other alternative."""
    matrix = dominance_matrix(model)
    names = model.alternative_names
    dominated = matrix.any(axis=0)
    return tuple(name for i, name in enumerate(names) if not dominated[i])


def potentially_optimal(
    model: AdditiveModel,
    among: Optional[Sequence[str]] = None,
) -> Tuple[str, ...]:
    """Alternatives that are best for some admissible parameters.

    ``among`` restricts the comparison set; GMAA "computes the
    potentially optimal alternatives among the non-dominated
    alternatives", so :func:`screen` passes the non-dominated set here.
    """
    names = list(model.alternative_names)
    candidates = list(among) if among is not None else list(names)
    unknown = [c for c in candidates if c not in names]
    if unknown:
        raise KeyError(f"unknown alternatives: {unknown}")
    a_eq, b_eq, bounds = weight_polytope(model.compiled)
    n = model.n_attributes
    winners: List[str] = []
    for a in candidates:
        ia = names.index(a)
        rivals = [names.index(b) for b in candidates if b != a]
        if not rivals:
            winners.append(a)
            continue
        # Variables: (w_1..w_n, t); maximise t.
        c = np.zeros(n + 1)
        c[-1] = -1.0
        a_ub = np.zeros((len(rivals), n + 1))
        for row, ib in enumerate(rivals):
            # t - sum_j w_j (uUp_aj - uLow_bj) <= 0
            a_ub[row, :n] = -(model.u_up[ia] - model.u_low[ib])
            a_ub[row, -1] = 1.0
        b_ub = np.zeros(len(rivals))
        eq = np.zeros((1, n + 1))
        eq[0, :n] = 1.0
        lp_bounds = list(bounds) + [(-10.0, 10.0)]
        res = _solve_lp(c, a_ub, b_ub, eq, b_eq, lp_bounds)
        if res.success:
            t_star = -res.fun
        else:
            # Near-degenerate polytope rejected by the solver: the
            # feasible weights collapse to (essentially) one point, so
            # evaluating any feasible vertex is exact — take the
            # box-simplex greedy point and the worst rival margin there.
            w0 = box_simplex_argmin(np.zeros(n), bounds)
            t_star = min(
                float((model.u_up[ia] - model.u_low[ib]) @ w0)
                for ib in rivals
            )
        if t_star >= -_FEAS_TOL:
            winners.append(a)
    return tuple(winners)


@dataclass(frozen=True)
class DominanceResult:
    """Outcome of the §V screening sensitivity analysis."""

    non_dominated: Tuple[str, ...]
    potentially_optimal: Tuple[str, ...]
    discarded: Tuple[str, ...]

    @property
    def survivors(self) -> Tuple[str, ...]:
        return self.potentially_optimal


def screen(model: AdditiveModel) -> DominanceResult:
    """Run the full §V screening: non-dominance then potential optimality.

    Returns the surviving set and the discarded alternatives — in the
    paper, three ontologies are discarded and "a further analysis is
    still required to make a final selection".
    """
    nd = non_dominated(model)
    po = potentially_optimal(model, among=nd)
    discarded = tuple(
        name for name in model.alternative_names if name not in po
    )
    return DominanceResult(nd, po, discarded)

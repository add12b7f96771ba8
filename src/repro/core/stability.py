"""Weight-stability intervals (§V, Fig. 8).

GMAA "computes the stability weight interval for any objective at any
level in the hierarchy.  This represents the interval where the average
normalized weight for the considered objective can vary without
affecting the overall ranking of alternatives or just the best-ranked
alternative."

Mechanics: let objective ``n`` (a child of parent ``p``) currently hold
local average weight ``l`` among its siblings.  Sliding it to ``x``
rescales every sibling proportionally by ``(1 - x) / (1 - l)``; weights
outside ``p``'s subtree and above ``p`` are untouched.  Every
alternative's average overall utility is then *affine in x*, so the
stability interval is an intersection of half-lines obtained from
pairwise comparisons — computed exactly, no search.

In the case study, the interval is ``[0, 1]`` for practically every
objective ("Media Ontology is still the best-ranked candidate whatever
average normalized weights are assigned"), except for *number of
functional requirements covered* and *adequacy of naming conventions*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .interval import Interval
from .model import AdditiveModel
from .problem import DecisionProblem

__all__ = [
    "StabilityReport",
    "affine_coefficients",
    "batch_affine_coefficients",
    "stability_interval",
    "stability_report",
]

_TOL = 1e-9


def affine_coefficients(
    model: AdditiveModel, objective: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-alternative (constant, slope) of utility as the weight moves.

    Returns arrays ``(C, S)`` such that alternative ``i``'s average
    overall utility equals ``C[i] + x * S[i]`` when ``objective``'s
    average normalised weight is set to ``x`` and its siblings are
    rescaled proportionally.
    """
    problem = model.problem
    hierarchy = problem.hierarchy
    if objective == hierarchy.root.name:
        raise ValueError("the root objective has no weight to vary")
    hierarchy.node(objective)  # validates the objective name
    parent = hierarchy.parent_of(objective)
    assert parent is not None

    weights = problem.weights
    local_avg = weights.local_average(objective)
    attrs = list(model.attribute_names)
    w_avg = model.w_avg

    under_node = set(hierarchy.attributes_under(objective))
    under_parent = set(hierarchy.attributes_under(parent.name))
    sibling_attrs = under_parent - under_node

    if not sibling_attrs:
        # An only child: renormalisation forces its weight back to 1,
        # so utilities never move.
        constant = model.average_utilities()
        return constant, np.zeros_like(constant)

    parent_weight = weights.node_weight_average(parent.name)

    def inner_weight(attr: str) -> float:
        """Product of local averages strictly below ``objective``."""
        leaf = hierarchy.leaf_for_attribute(attr)
        path = hierarchy.path_to(leaf.name)
        node_pos = next(
            i for i, step in enumerate(path) if step.name == objective
        )
        product = 1.0
        for step in path[node_pos + 1:]:
            product *= weights.local_average(step.name)
        return product

    n_alt = model.n_alternatives
    constant = np.zeros(n_alt)
    slope = np.zeros(n_alt)
    for j, attr in enumerate(attrs):
        contrib = model.u_avg[:, j] * w_avg[j]
        if attr in under_node:
            # w_j(x) = parent_weight * x * inner_weight — pure slope,
            # valid even when the current local average is zero.
            slope += model.u_avg[:, j] * parent_weight * inner_weight(attr)
        elif attr in sibling_attrs:
            if 1.0 - local_avg <= _TOL:
                raise ValueError(
                    f"siblings of {objective!r} hold zero weight; the "
                    "proportional rescaling is undefined"
                )
            constant += contrib / (1.0 - local_avg)
            slope -= contrib / (1.0 - local_avg)
        else:
            constant += contrib
    return constant, slope


def batch_affine_coefficients(
    model: AdditiveModel,
    objectives: "Sequence[str] | None" = None,
) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
    """(objectives, constants, slopes) for many objectives at once.

    Returns ``(names, C, S)`` with ``C``/``S`` of shape
    ``(n_objectives, n_alternatives)``: alternative ``i``'s average
    overall utility equals ``C[o, i] + x * S[o, i]`` when objective
    ``o``'s average normalised weight is set to ``x``.

    The hierarchy walk only builds two weight-coefficient matrices
    ``(n_objectives, n_attributes)``; the per-alternative math — the
    part that scales with the problem — is two tensor ops through the
    model's :class:`~repro.core.engine.BatchEvaluator`
    (``utilities_for_weights``, which runs the stacked kernel on the
    ``P = 1`` view), not a Python loop per objective.
    Equivalent to calling :func:`affine_coefficients` per objective
    (pinned by tests) up to summation order.
    """
    problem = model.problem
    hierarchy = problem.hierarchy
    root = hierarchy.root.name
    if objectives is None:
        objectives = tuple(
            node.name for node in hierarchy.nodes() if node.name != root
        )
    names = tuple(objectives)
    if root in names:
        raise ValueError("the root objective has no weight to vary")

    weights = problem.weights
    attrs = list(model.attribute_names)
    w_avg = model.w_avg
    n_att = len(attrs)

    # Weight-space coefficient matrices: w_j(x) = Wc[o, j] + x * Ws[o, j].
    coef_const = np.zeros((len(names), n_att))
    coef_slope = np.zeros((len(names), n_att))
    for o, objective in enumerate(names):
        parent = hierarchy.parent_of(objective)
        assert parent is not None
        local_avg = weights.local_average(objective)
        under_node = set(hierarchy.attributes_under(objective))
        under_parent = set(hierarchy.attributes_under(parent.name))
        sibling_attrs = under_parent - under_node
        if not sibling_attrs:
            # An only child: renormalisation pins its weight, so the
            # current averages are the whole story.
            coef_const[o] = w_avg
            continue
        if 1.0 - local_avg <= _TOL:
            raise ValueError(
                f"siblings of {objective!r} hold zero weight; the "
                "proportional rescaling is undefined"
            )
        parent_weight = weights.node_weight_average(parent.name)
        for j, attr in enumerate(attrs):
            if attr in under_node:
                leaf = hierarchy.leaf_for_attribute(attr)
                path = hierarchy.path_to(leaf.name)
                node_pos = next(
                    i for i, step in enumerate(path) if step.name == objective
                )
                inner = 1.0
                for step in path[node_pos + 1:]:
                    inner *= weights.local_average(step.name)
                coef_slope[o, j] = parent_weight * inner
            elif attr in sibling_attrs:
                coef_const[o, j] = w_avg[j] / (1.0 - local_avg)
                coef_slope[o, j] = -w_avg[j] / (1.0 - local_avg)
            else:
                coef_const[o, j] = w_avg[j]

    # One batched tensor op each over all objectives: (n_alt, n_obj).T
    evaluator = model.evaluator
    constants = evaluator.utilities_for_weights(coef_const).T
    slopes = evaluator.utilities_for_weights(coef_slope).T
    return names, constants, slopes


def _feasible_interval(
    constraints: List[Tuple[float, float]]
) -> "Interval | None":
    """Intersect ``{x : c + s*x >= 0}`` half-lines with [0, 1]."""
    lo, hi = 0.0, 1.0
    for c, s in constraints:
        if abs(s) <= _TOL:
            if c < -1e-7:
                return None
            continue
        bound = -c / s
        if s > 0:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if lo > hi + _TOL:
        return None
    return Interval(max(0.0, min(lo, 1.0)), max(0.0, min(hi, 1.0)))


def stability_interval(
    problem: DecisionProblem,
    objective: str,
    mode: str = "best",
    model: "AdditiveModel | None" = None,
) -> "Interval | None":
    """The stability interval of one objective's average weight.

    ``mode="best"`` (the paper's Fig. 8 setting) keeps only the
    best-ranked alternative fixed; ``mode="ranking"`` keeps the whole
    ranking fixed.  Returns ``None`` when the current point is already
    degenerate (should not happen for a valid problem).
    """
    if mode not in ("best", "ranking"):
        raise ValueError(f"mode must be 'best' or 'ranking', got {mode!r}")
    model = model or AdditiveModel(problem)
    constant, slope = affine_coefficients(model, objective)
    order = np.argsort(-model.average_utilities(), kind="stable")
    return _interval_from_coefficients(constant, slope, order, mode)


def _interval_from_coefficients(
    constant: np.ndarray, slope: np.ndarray, order: np.ndarray, mode: str
) -> "Interval | None":
    """The stability interval implied by one objective's (C, S) row."""
    constraints: List[Tuple[float, float]] = []
    if mode == "best":
        best = order[0]
        for i in range(len(constant)):
            if i == best:
                continue
            constraints.append(
                (constant[best] - constant[i], slope[best] - slope[i])
            )
    else:
        for a, b in zip(order, order[1:]):
            constraints.append((constant[a] - constant[b], slope[a] - slope[b]))
    return _feasible_interval(constraints)


@dataclass(frozen=True)
class StabilityReport:
    """Stability intervals for every non-root objective (Fig. 8)."""

    mode: str
    intervals: Dict[str, "Interval | None"]

    def insensitive_objectives(self, tol: float = 1e-6) -> Tuple[str, ...]:
        """Objectives whose interval is the whole [0, 1]."""
        full = Interval(0.0, 1.0)
        return tuple(
            name
            for name, iv in self.intervals.items()
            if iv is not None and iv.almost_equal(full, tol)
        )

    def sensitive_objectives(self, tol: float = 1e-6) -> Tuple[str, ...]:
        """Objectives with a strictly smaller stability interval.

        The paper finds exactly two: the number of functional
        requirements covered and the adequacy of naming conventions.
        """
        full = Interval(0.0, 1.0)
        return tuple(
            name
            for name, iv in self.intervals.items()
            if iv is None or not iv.almost_equal(full, tol)
        )


def stability_report(
    problem: DecisionProblem, mode: str = "best"
) -> StabilityReport:
    """Stability intervals for all objectives at all levels.

    The whole sweep — every non-root objective, every alternative —
    evaluates as two batched tensor ops through
    :func:`batch_affine_coefficients`, not one model evaluation per
    objective.
    """
    if mode not in ("best", "ranking"):
        raise ValueError(f"mode must be 'best' or 'ranking', got {mode!r}")
    model = AdditiveModel(problem)
    names, constants, slopes = batch_affine_coefficients(model)
    order = np.argsort(-model.average_utilities(), kind="stable")
    intervals = {
        name: _interval_from_coefficients(
            constants[o], slopes[o], order, mode
        )
        for o, name in enumerate(names)
    }
    return StabilityReport(mode, intervals)

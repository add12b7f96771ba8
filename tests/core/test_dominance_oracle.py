"""The closed-form dominance kernel against independent references.

:func:`repro.core.engine.stacked_dominance` solves every pair's
worst-case LP exactly with the box-intersect-simplex greedy.  Two
references check it:

* the per-pair HiGHS LPs of :func:`repro.core.dominance.dominates`, on
  the paper's case study, the first cases of every generator preset
  and the NeOn shortlist registry — per problem and stacked;
* the documented decision rule evaluated exactly (``fractions``) at
  the greedy vertex, on problems whose margins sit within a few
  tolerances of both thresholds.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import genreg, workspace
from repro.core.dominance import dominance_matrix, dominates
from repro.core.engine import (
    _FEAS_TOL,
    BatchEvaluator,
    CompiledProblem,
    StackedEvaluator,
    compile_problem,
    stack_problems,
    stacked_dominance,
)
from repro.fuzz import dominance_oracle

PRESETS = sorted(name for name in genreg.PRESETS if name != "stress-10k")


def assert_matches_oracle(compiled_problems):
    """Per-problem and stacked kernels both equal the HiGHS oracle."""
    oracles = [dominance_oracle(c) for c in compiled_problems]
    for c, oracle in zip(compiled_problems, oracles):
        assert np.array_equal(dominance_matrix(c), oracle), c.name
    for stack in stack_problems(compiled_problems):
        matrices = StackedEvaluator(stack).dominance_matrices()
        for pos, src in enumerate(stack.source_indices):
            assert np.array_equal(matrices[pos], oracles[src]), stack.names[pos]


def test_case_study_matches_oracle(case_model):
    matrix = dominance_matrix(case_model)
    assert np.array_equal(matrix, dominance_oracle(case_model))
    assert matrix.sum() > 0  # the paper's screen discards three ontologies


@pytest.mark.parametrize("name", PRESETS)
def test_preset_samples_match_oracle(name):
    spec = genreg.preset(name, seed=0)
    n = min(8, spec.n_workspaces)
    assert_matches_oracle(
        [compile_problem(genreg.generate_problem(spec, i)) for i in range(n)]
    )


def test_neon_shortlists_match_oracle(tmp_path):
    paths = genreg.neon_shortlist_registry(tmp_path, n_workspaces=8)
    compiled = [compile_problem(workspace.load(p)) for p in paths]
    assert_matches_oracle(compiled)
    # Rank intervals follow the oracle matrix too.
    for c in compiled:
        ev = BatchEvaluator(c)
        oracle = dominance_oracle(c)
        for i, interval in enumerate(ev.rank_intervals().values()):
            assert interval.best == 1 + oracle[:, i].sum()
            assert interval.worst == len(oracle) - oracle[i].sum()


# ----------------------------------------------------------------------
# The tolerance boundary, decided exactly
# ----------------------------------------------------------------------

TOL = _FEAS_TOL
MARGINS = (0.0, TOL / 2, -TOL / 2, 2 * TOL, -2 * TOL)
W_LOW = np.array([0.3, 0.3])
W_UP = np.array([0.7, 0.7])


def two_by_two(u_low, u_up) -> CompiledProblem:
    """A 2-alternative, 2-attribute compiled problem over ``W_LOW..W_UP``."""
    u_low, u_up = np.asarray(u_low, float), np.asarray(u_up, float)
    return CompiledProblem.from_arrays(
        "boundary", ("x", "y"), ("a", "b"),
        u_low, (u_low + u_up) / 2, u_up, np.zeros((2, 2), bool),
        W_LOW, np.array([0.5, 0.5]), W_UP,
        np.zeros((2, 1)), np.zeros((2, 1)), np.ones(2, np.intp),
        np.zeros((2, 2), np.intp),
    )


def exact_min(c):
    """``min c . w`` over the box-intersect-simplex, in exact arithmetic,
    at the greedy vertex (cheapest coordinates filled first)."""
    low = [Fraction(x) for x in W_LOW]
    room = [Fraction(u) - lo for u, lo in zip(W_UP, low)]
    w, residual = list(low), 1 - sum(low)
    for j in sorted(range(len(c)), key=lambda j: c[j]):
        take = min(room[j], max(residual, Fraction(0)))
        w[j] += take
        residual -= take
    return sum(cj * wj for cj, wj in zip(c, w))


def exact_rule(compiled: CompiledProblem) -> np.ndarray:
    """The documented rule: worst case ``>= -tol`` and strictness ``> tol``."""
    lo = [[Fraction(x) for x in row] for row in compiled.u_low]
    up = [[Fraction(x) for x in row] for row in compiled.u_up]
    tol, n = Fraction(TOL), len(lo)
    out = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            worst = exact_min([a - b for a, b in zip(lo[i], up[j])])
            best = -exact_min([b - a for a, b in zip(up[i], lo[j])])
            out[i, j] = worst >= -tol and best > tol
    return out


def worst_case_problem(margin):
    """``a``'s worst case against precise ``b`` is ``margin``; the greedy
    puts the heavy weight on ``y``.  ``a``'s upper envelope is 0.1 above
    its lower one, so strictness is never in doubt."""
    b = np.array([0.5, 0.5])
    a_low = b + [margin + 0.07, margin - 0.03]
    return two_by_two([a_low, b], [a_low + 0.1, b])


def strictness_problem(margin, tilt):
    """Precise ``a = b + margin`` (tilted by ``+-tilt`` per attribute):
    worst and best case both sit within ``0.4 * tilt`` of ``margin``."""
    b = np.array([0.5, 0.5])
    a = b + [margin + tilt, margin - tilt]
    return two_by_two([a, b], [a, b])


BOUNDARY_CASES = [worst_case_problem(m) for m in MARGINS] + [
    strictness_problem(m, tilt) for m in MARGINS for tilt in (0.0, TOL / 4)
]


def test_boundary_margins_follow_the_exact_rule():
    expected = [exact_rule(c) for c in BOUNDARY_CASES]
    # The rule, spelled out: a worst case of -tol/2 still dominates,
    # -2 tol does not; a best case of tol/2 is not strict, 2 tol is.
    assert [e[0, 1] for e in expected[:5]] == [True, True, True, True, False]
    strict = [e[0, 1] for e in expected[5::2]]
    assert strict == [False, False, False, True, False]
    assert [e[1, 0] for e in expected[5::2]] == [False] * 4 + [True]

    for c, want in zip(BOUNDARY_CASES, expected):
        assert np.array_equal(dominance_matrix(c), want)
        names = c.alternative_names
        assert [dominates(c, names[0], names[1]),
                dominates(c, names[1], names[0])] == [want[0, 1], want[1, 0]]
    stacked = stacked_dominance(
        np.stack([c.u_low for c in BOUNDARY_CASES]),
        np.stack([c.u_up for c in BOUNDARY_CASES]),
        np.stack([c.w_low for c in BOUNDARY_CASES]),
        np.stack([c.w_up for c in BOUNDARY_CASES]),
    )
    assert np.array_equal(stacked, np.stack(expected))


def test_kernel_rejects_a_box_that_misses_the_simplex():
    c = worst_case_problem(0.0)
    u_low, u_up = c.u_low[None], c.u_up[None]
    with pytest.raises(ValueError, match="do not intersect the simplex"):
        stacked_dominance(u_low, u_up, W_LOW[None] + 0.3, W_UP[None])
    with pytest.raises(ValueError, match="do not intersect the simplex"):
        stacked_dominance(u_low, u_up, W_LOW[None] / 2, W_UP[None] / 2)

"""Pinned regressions for degenerate specs the fuzzer surfaced.

Each test nails one failure mode found by ``repro fuzz`` against the
registry generator's degenerate sweep regions: near-degenerate weight
polytopes thinner than the LP solver's feasibility tolerance, single-
alternative problems, all-missing performance rows and zero-width
weight intervals.
"""

import numpy as np
import pytest

from repro.core import genreg
from repro.core.dominance import dominance_matrix, dominates, screen
from repro.core.engine import (
    BatchEvaluator,
    box_simplex_argmin,
    box_simplex_minimum,
    compile_problem,
)
from repro.core.genreg import preset
from repro.core.model import AdditiveModel, evaluate
from repro.core.scales import MISSING
from repro.fuzz import dominance_oracle


class TestBoxSimplexFallback:
    """The exact greedy (the dominance kernel, and the fallback of the
    remaining LPs) agrees with scipy where scipy works."""

    def test_matches_scipy_on_healthy_boxes(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            low = rng.uniform(0.0, 1.0 / n, n)
            up = low + rng.uniform(0.05, 1.0, n)
            # Ensure the box straddles the simplex.
            if low.sum() > 1.0 or up.sum() < 1.0:
                continue
            c = rng.normal(size=n)
            bounds = list(zip(low, up))
            res = linprog(
                c,
                A_eq=np.ones((1, n)),
                b_eq=np.ones(1),
                bounds=bounds,
                method="highs",
            )
            assert res.success
            assert box_simplex_minimum(c, bounds) == pytest.approx(
                float(res.fun), abs=1e-9
            )

    def test_argmin_is_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            low = rng.uniform(0.0, 1.0 / n, n)
            up = low + rng.uniform(0.1, 1.0, n)
            if low.sum() > 1.0 or up.sum() < 1.0:
                continue
            w = box_simplex_argmin(rng.normal(size=n), list(zip(low, up)))
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= low - 1e-12)
            assert np.all(w <= up + 1e-12)

    def test_point_polytope(self):
        # Zero-width box that is exactly on the simplex.
        bounds = [(0.25, 0.25), (0.75, 0.75)]
        c = np.array([3.0, -1.0])
        assert box_simplex_minimum(c, bounds) == pytest.approx(0.0)


class TestNearDegeneratePinned:
    """Fuzz preset seed 0, case 114: 9x16, near-degenerate weights.

    The weight box straddles the simplex by ~2e-7 — mathematically
    feasible but thinner than HiGHS's feasibility tolerance, so its LPs
    (potential optimality, the ``dominates`` oracle) report infeasible.
    They must fall back to the exact box-simplex solve instead of
    raising.
    """

    @pytest.fixture(scope="class")
    def pinned_problem(self):
        spec = preset("fuzz").replace(seed=0, n_workspaces=300)
        return genreg.generate_problem(spec, 114)

    def test_polytope_is_actually_near_degenerate(self, pinned_problem):
        compiled = compile_problem(pinned_problem)
        assert 1.0 - compiled.w_low.sum() < 1e-6
        assert compiled.w_up.sum() - 1.0 < 1e-6

    def test_screen_does_not_crash(self, pinned_problem):
        result = screen(AdditiveModel(pinned_problem))
        assert set(result.survivors) <= set(
            pinned_problem.table.alternative_names
        )

    def test_pairwise_dominates_does_not_crash(self, pinned_problem):
        model = AdditiveModel(pinned_problem)
        names = model.alternative_names
        assert dominates(model, names[0], names[1]) in (True, False)

    def test_batch_matrix_matches_itself_across_solvers(self, pinned_problem):
        """Closed-form kernel vs the per-pair HiGHS oracle (which falls
        back to the exact greedy where HiGHS rejects the thin box)."""
        model = AdditiveModel(pinned_problem)
        assert np.array_equal(dominance_matrix(model), dominance_oracle(model))


class TestSingleAlternative:
    @pytest.fixture(scope="class")
    def single(self):
        spec = preset("degenerate", seed=0, n_workspaces=40).replace(
            alternatives=(1, 1)
        )
        return genreg.generate_problem(spec, 0)

    def test_evaluates(self, single):
        rows = list(evaluate(single))
        assert len(rows) == 1

    def test_dominance_and_ranks(self, single):
        ev = BatchEvaluator(compile_problem(single))
        assert ev.dominance_matrix().shape == (1, 1)
        (interval,) = ev.rank_intervals().values()
        assert (interval.best, interval.worst) == (1, 1)
        result = screen(AdditiveModel(single))
        assert result.survivors == tuple(single.table.alternative_names)

    def test_monte_carlo(self, single):
        ev = BatchEvaluator(compile_problem(single))
        ranks, acceptance = ev.monte_carlo_ranks(
            method="intervals", n_simulations=16, seed=1
        )
        assert np.all(ranks == 1)
        assert acceptance == 1.0


class TestAllMissingRow:
    def test_all_missing_row_evaluates_and_ranks_last_or_ties(self):
        spec = preset("degenerate", seed=0, n_workspaces=60)
        found = False
        for problem in genreg.iter_problems(spec, limit=60):
            rows_missing = [
                all(
                    alt.performance(a) is MISSING
                    for a in problem.table.attribute_names
                )
                for alt in problem.table.alternatives
            ]
            if not any(rows_missing):
                continue
            found = True
            evaluation = evaluate(problem)
            for row in evaluation:
                assert row.minimum <= row.average + 1e-9 <= row.maximum + 2e-9
            screen(AdditiveModel(problem))
        assert found, "degenerate preset should produce an all-missing row"


class TestZeroWidthWeights:
    def test_precise_weights_evaluate_and_screen(self):
        spec = preset("degenerate", seed=3, n_workspaces=20).replace(
            weight_style="precise"
        )
        problem = genreg.generate_problem(spec, 1)
        compiled = compile_problem(problem)
        assert np.array_equal(compiled.w_low, compiled.w_up)
        evaluation = evaluate(problem)
        assert len(list(evaluation)) == len(problem.table.alternatives)
        screen(AdditiveModel(problem))

"""Equivalence tests for the stacked multi-problem engine.

The stack is the only evaluation kernel, so each member is checked
against independent per-problem references: every deterministic
reading, every ranking and every seeded Monte Carlo slice has to match
the plain 2-D NumPy reference in :mod:`repro.fuzz` exactly, and every
dominance matrix the per-pair HiGHS oracle — regardless of which other
problems share the stack.
"""

import numpy as np
import pytest

from repro.casestudy.problem import multimedia_problem
from repro.core.engine import (
    StackedEvaluator,
    StackedProblem,
    compile_problem,
    rank_matrix,
    stack_problems,
    stacked_dominance,
)
from repro.core.rankintervals import rank_intervals
from repro.fuzz import (
    dominance_oracle,
    reference_monte_carlo,
    reference_readings,
)

from ..conftest import make_small_problem


@pytest.fixture(scope="module")
def small_stack():
    members = [
        compile_problem(make_small_problem(name="plain")),
        compile_problem(make_small_problem(missing_cell=True, name="gappy")),
        compile_problem(make_small_problem(name="third")),
    ]
    return StackedProblem(members)


class TestStacking:
    def test_groups_by_shape_preserving_indices(self):
        compiled = [
            compile_problem(make_small_problem(name="a")),
            compile_problem(multimedia_problem()),
            compile_problem(make_small_problem(name="b")),
        ]
        stacks = stack_problems(compiled)
        assert [s.shape for s in stacks] == [(3, 3), (23, 14)]
        assert stacks[0].source_indices == (0, 2)
        assert stacks[1].source_indices == (1,)

    def test_tensor_shapes(self, small_stack):
        p, (n_alt, n_att) = small_stack.n_problems, small_stack.shape
        assert small_stack.u_avg.shape == (p, n_alt, n_att)
        assert small_stack.missing.shape == (p, n_alt, n_att)
        assert small_stack.w_low.shape == (p, n_att)
        assert small_stack.alt_key.shape == (p, n_att, n_alt)
        assert small_stack.key_low.shape[:2] == (p, n_att)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            StackedProblem(
                [
                    compile_problem(make_small_problem()),
                    compile_problem(multimedia_problem()),
                ]
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StackedProblem([])

    def test_misaligned_source_indices(self):
        member = compile_problem(make_small_problem())
        with pytest.raises(ValueError):
            StackedProblem([member], source_indices=[0, 1])


class TestDeterministicEquivalence:
    def test_utilities_bit_identical(self, small_stack):
        evaluator = StackedEvaluator(small_stack)
        mins = evaluator.minimum_utilities()
        avgs = evaluator.average_utilities()
        maxs = evaluator.maximum_utilities()
        for p, member in enumerate(small_stack.members):
            ref = reference_readings(member)
            assert np.array_equal(mins[p], ref["min"])
            assert np.array_equal(avgs[p], ref["avg"])
            assert np.array_equal(maxs[p], ref["max"])

    def test_ranking_orders_match(self, small_stack):
        evaluator = StackedEvaluator(small_stack)
        orders = evaluator.ranking_orders()
        for p, member in enumerate(small_stack.members):
            assert np.array_equal(orders[p], reference_readings(member)["order"])

    def test_evaluate_all_matches_member_evaluations(self, small_stack):
        stacked = StackedEvaluator(small_stack).evaluate_all()
        for p, member in enumerate(small_stack.members):
            ref = reference_readings(member)
            assert stacked[p].problem_name == member.name
            for rank, (row, i) in enumerate(
                zip(stacked[p], ref["order"]), start=1
            ):
                assert (row.name, row.rank) == (
                    member.alternative_names[i],
                    rank,
                )
                assert row.minimum == ref["min"][i]
                assert row.average == ref["avg"][i]
                assert row.maximum == ref["max"][i]

    def test_accepts_plain_sequence(self):
        members = [
            compile_problem(make_small_problem(name="x")),
            compile_problem(make_small_problem(name="y")),
        ]
        evaluator = StackedEvaluator(members)
        assert evaluator.n_problems == 2

    def test_scenario_ranks_match(self, small_stack):
        rng = np.random.default_rng(3)
        evaluator = StackedEvaluator(small_stack)
        weights = rng.dirichlet(
            np.ones(small_stack.n_attributes),
            size=(small_stack.n_problems, 6),
        )
        stacked_ranks = evaluator.scenario_ranks(weights)
        for p, member in enumerate(small_stack.members):
            single = rank_matrix(weights[p] @ member.u_avg.T)
            assert np.array_equal(stacked_ranks[p], single)


class TestStackedMonteCarlo:
    @pytest.mark.parametrize("method", ["random", "rank_order", "intervals"])
    @pytest.mark.parametrize("mode", [False, "missing", True])
    def test_exact_match_per_member(self, small_stack, method, mode):
        """The tentpole contract: seeded per-problem RNG streams make
        stacked Monte Carlo output equal per-problem runs exactly."""
        evaluator = StackedEvaluator(small_stack)
        ranks, acceptance = evaluator.monte_carlo_ranks(
            method=method, n_simulations=193, seed=77, sample_utilities=mode
        )
        assert ranks.shape == (
            small_stack.n_problems,
            193,
            small_stack.n_alternatives,
        )
        for p, member in enumerate(small_stack.members):
            single_ranks, single_acc = reference_monte_carlo(
                member, method, 193, 77, mode
            )
            assert np.array_equal(ranks[p], single_ranks)
            assert acceptance[p] == single_acc

    def test_per_member_seed_sequence(self, small_stack):
        evaluator = StackedEvaluator(small_stack)
        seeds = [11, 22, 33]
        ranks, _ = evaluator.monte_carlo_ranks(
            n_simulations=64, seed=seeds, sample_utilities="missing"
        )
        for p, member in enumerate(small_stack.members):
            single, _ = reference_monte_carlo(
                member, "intervals", 64, seeds[p], "missing"
            )
            assert np.array_equal(ranks[p], single)

    def test_seed_sequence_length_checked(self, small_stack):
        with pytest.raises(ValueError):
            StackedEvaluator(small_stack).monte_carlo_ranks(
                n_simulations=8, seed=[1, 2]
            )

    def test_simulations_positive(self, small_stack):
        with pytest.raises(ValueError):
            StackedEvaluator(small_stack).monte_carlo_ranks(n_simulations=0)

    def test_simulate_all_wraps_results(self, small_stack):
        results = StackedEvaluator(small_stack).simulate_all(
            n_simulations=32, seed=5, sample_utilities="missing"
        )
        assert len(results) == small_stack.n_problems
        for result, member in zip(results, small_stack.members):
            assert result.names == member.alternative_names
            assert result.n_simulations == 32

    def test_independent_of_stack_composition(self):
        """A member's Monte Carlo slice must not depend on its
        neighbours in the stack (the merge-determinism invariant)."""
        a = compile_problem(make_small_problem(name="a"))
        b = compile_problem(make_small_problem(missing_cell=True, name="b"))
        c = compile_problem(make_small_problem(name="c"))
        pair_ranks, _ = StackedEvaluator([a, b]).monte_carlo_ranks(
            n_simulations=128, seed=9, sample_utilities="missing"
        )
        triple_ranks, _ = StackedEvaluator([c, a, b]).monte_carlo_ranks(
            n_simulations=128, seed=9, sample_utilities="missing"
        )
        assert np.array_equal(pair_ranks[0], triple_ranks[1])
        assert np.array_equal(pair_ranks[1], triple_ranks[2])


class TestStackedDominance:
    def test_matches_per_member_batch_dominance(self, small_stack):
        s = small_stack
        stacked = stacked_dominance(s.u_low, s.u_up, s.w_low, s.w_up)
        assert stacked.shape == (
            small_stack.n_problems,
            small_stack.n_alternatives,
            small_stack.n_alternatives,
        )
        for p, member in enumerate(small_stack.members):
            assert np.array_equal(stacked[p], dominance_oracle(member))

    def test_evaluator_dominance_and_rank_intervals(self, small_stack):
        evaluator = StackedEvaluator(small_stack)
        matrices = evaluator.dominance_matrices()
        intervals = evaluator.rank_intervals_all()
        for p, member in enumerate(small_stack.members):
            oracle = dominance_oracle(member)
            assert np.array_equal(matrices[p], oracle)
            assert intervals[p] == rank_intervals(member, matrix=oracle)

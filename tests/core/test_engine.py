"""Equivalence tests for the vectorized evaluation engine.

The engine must be a pure speedup: every number it produces — Fig. 6
rankings, weight-scenario utilities, Monte Carlo ranks, dominance
matrices, rank intervals — has to match the independent references
(the plain 2-D NumPy reference in :mod:`repro.fuzz`, explicit scalar
sums, per-pair HiGHS LPs) and the public APIs exactly, same seeds
giving same ranks.  :class:`BatchEvaluator` is the ``P = 1`` view of
:class:`StackedEvaluator`.
"""

import inspect


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dominance import dominance_matrix
from repro.core.engine import (
    BatchEvaluator,
    CompiledProblem,
    StackedEvaluator,
    compile_problem,
    rank_matrix,
)
from repro.core.hierarchy import Hierarchy, ObjectiveNode
from repro.core.interval import Interval
from repro.core.model import AdditiveModel, evaluate
from repro.core.montecarlo import simulate
from repro.core.performance import Alternative, PerformanceTable
from repro.core.problem import DecisionProblem
from repro.core.rankintervals import rank_intervals
from repro.core.scales import MISSING, linguistic_0_3
from repro.core.utility import banded_discrete_utility
from repro.core.weights import WeightSystem
from repro.fuzz import (
    dominance_oracle,
    reference_monte_carlo,
    reference_readings,
)

from ..conftest import make_small_problem


class TestCompiledProblem:
    def test_shapes(self, case_problem):
        compiled = compile_problem(case_problem)
        n_alt, n_att = compiled.n_alternatives, compiled.n_attributes
        assert compiled.u_low.shape == (n_alt, n_att)
        assert compiled.u_avg.shape == (n_alt, n_att)
        assert compiled.u_up.shape == (n_alt, n_att)
        assert compiled.missing.shape == (n_alt, n_att)
        assert compiled.w_low.shape == (n_att,)
        assert compiled.alt_key.shape == (n_att, n_alt)
        assert compiled.key_low.shape == compiled.key_up.shape

    def test_matches_additive_model_arrays(self, case_problem):
        compiled = compile_problem(case_problem)
        model = AdditiveModel(case_problem)
        assert np.array_equal(compiled.u_low, model.u_low)
        assert np.array_equal(compiled.u_avg, model.u_avg)
        assert np.array_equal(compiled.u_up, model.u_up)
        assert np.array_equal(compiled.w_avg, model.w_avg)

    def test_envelopes_are_ordered(self, case_problem):
        compiled = compile_problem(case_problem)
        assert np.all(compiled.u_low <= compiled.u_avg + 1e-12)
        assert np.all(compiled.u_avg <= compiled.u_up + 1e-12)

    def test_missing_mask(self):
        compiled = compile_problem(make_small_problem(missing_cell=True))
        i = compiled.alternative_names.index("mid")
        j = compiled.attribute_names.index("support")
        assert compiled.missing[i, j]
        assert compiled.missing.sum() == 1

    def test_alternative_index(self, case_problem):
        compiled = compile_problem(case_problem)
        assert compiled.alternative_index("COMM") == (
            compiled.alternative_names.index("COMM")
        )
        with pytest.raises(KeyError):
            compiled.alternative_index("Nope")

    def test_accepts_model_and_compiled_sources(self, case_problem):
        compiled = compile_problem(case_problem)
        model = AdditiveModel(case_problem)
        assert BatchEvaluator(compiled).compiled is compiled
        assert BatchEvaluator(model).compiled is model.compiled
        with pytest.raises(TypeError):
            BatchEvaluator(42)

    def test_view_holds_no_array_kernel(self):
        """BatchEvaluator delegates every number to the stacked kernels."""
        source = inspect.getsource(BatchEvaluator)
        for kernel in (" @ ", "matmul", "einsum", "lexsort", "add.at", "uniform"):
            assert kernel not in source


class TestEvaluationEquivalence:
    def test_fig6_ranking_identical(self, case_problem, case_model):
        compiled = compile_problem(case_problem)
        batch = BatchEvaluator(compiled).evaluate()
        ref = reference_readings(compiled)
        assert batch.problem_name == case_model.evaluate().problem_name
        assert [row.name for row in batch] == [
            compiled.alternative_names[i] for i in ref["order"]
        ]
        for rank, (row, i) in enumerate(zip(batch, ref["order"]), start=1):
            assert row.rank == rank
            assert row.minimum == ref["min"][i]
            assert row.average == ref["avg"][i]
            assert row.maximum == ref["max"][i]

    def test_evaluate_function_path(self, case_problem):
        by_objective = evaluate(case_problem, "Understandability")
        batch = BatchEvaluator(
            compile_problem(case_problem.restricted_to("Understandability"))
        ).evaluate()
        assert by_objective.names_by_rank == batch.names_by_rank

    def test_utility_intervals(self, case_model):
        """The Fig. 6 [min, max] intervals are the stacked kernel's."""
        stacked = StackedEvaluator([case_model.compiled])
        mins = stacked.minimum_utilities()[0]
        maxs = stacked.maximum_utilities()[0]
        for row in case_model.evaluate():
            i = case_model.alternative_names.index(row.name)
            assert row.minimum == float(mins[i])
            assert row.maximum == float(maxs[i])

    def test_scenario_ranks_match_single_evaluations(self, case_model):
        rng = np.random.default_rng(5)
        weights = rng.dirichlet(np.ones(case_model.n_attributes), size=8)
        stacked = StackedEvaluator([case_model.compiled])
        ranks = stacked.scenario_ranks(weights[None])[0]
        assert ranks.shape == (8, case_model.n_alternatives)
        for s in range(8):
            utilities = case_model.utilities_for_weights(weights[s])
            expected = rank_matrix(utilities[None, :])[0]
            assert np.array_equal(ranks[s], expected)

    def test_utilities_for_weights_match_reference(self, case_model):
        compiled = case_model.compiled
        rng = np.random.default_rng(8)
        weights = rng.dirichlet(np.ones(compiled.n_attributes), size=5)
        evaluator = case_model.evaluator
        assert np.array_equal(
            evaluator.utilities_for_weights(weights[0]),
            compiled.u_avg @ weights[0],
        )
        assert np.array_equal(
            evaluator.utilities_for_weights(weights), compiled.u_avg @ weights.T
        )

    @pytest.mark.parametrize(
        "shape", [(), (2, 14, 5), (1, 1, 14), (13,), (4, 15)]
    )
    def test_utilities_for_weights_rejects_bad_shapes(self, case_model, shape):
        """Only (k,) and (S, k) are accepted; a 3-D array used to
        broadcast silently and a 0-D one raised IndexError."""
        assert case_model.n_attributes == 14
        with pytest.raises(ValueError, match="expected weights of shape"):
            case_model.evaluator.utilities_for_weights(np.full(shape, 0.1))


class TestMonteCarloEquivalence:
    @pytest.mark.parametrize("method", ["random", "rank_order", "intervals"])
    @pytest.mark.parametrize("mode", [False, "missing", True])
    def test_simulate_matches_engine(self, method, mode):
        problem = make_small_problem(missing_cell=True)
        via_public = simulate(
            problem,
            method=method,
            n_simulations=256,
            seed=99,
            sample_utilities=mode,
        )
        ranks, acceptance = reference_monte_carlo(
            compile_problem(problem), method, 256, 99, mode
        )
        assert np.array_equal(via_public.ranks, ranks)
        assert via_public.acceptance_rate == acceptance

    def test_simulate_accepts_compiled(self, case_problem):
        compiled = compile_problem(case_problem)
        a = simulate(compiled, n_simulations=64, seed=3, sample_utilities="missing")
        b = simulate(case_problem, n_simulations=64, seed=3, sample_utilities="missing")
        assert np.array_equal(a.ranks, b.ranks)

    def test_case_study_seed2012_fingerprint(self, case_mc):
        """The Fig. 9/10 run is pinned: refactors must not move it."""
        assert set(case_mc.ever_best()) == {"Media Ontology", "Boemie VDO"}
        assert case_mc.statistics_for("MPEG7 Ontology").mode == 23
        assert case_mc.statistics_for("Photography Ontology").mode == 22

    def test_full_utility_sampling_respects_envelopes(self):
        problem = make_small_problem(missing_cell=True)
        compiled = compile_problem(problem)
        stacked = StackedEvaluator([compiled])
        rng = np.random.default_rng(11)
        u = stacked._sampled_utility_tensor(128, [rng])[0]
        assert u.shape == (128, compiled.n_alternatives, compiled.n_attributes)
        # Draws stay inside the class envelopes after monotonisation.
        assert np.all(u >= compiled.u_low[None] - 1e-12)
        assert np.all(u <= compiled.u_up[None] + 1e-12)

    def test_engine_simulate_wrapper(self, case_problem):
        evaluator = BatchEvaluator(compile_problem(case_problem))
        result = evaluator.simulate(
            method="intervals", n_simulations=32, seed=1, sample_utilities="missing"
        )
        assert result.n_simulations == 32
        assert result.names == case_problem.alternative_names


class TestDominanceEquivalence:
    def test_batch_matches_public_matrix(self, case_model):
        batch = BatchEvaluator(case_model.compiled).dominance_matrix()
        public = dominance_matrix(case_model)
        assert np.array_equal(batch, public)

    def test_solvers_agree_through_engine(self):
        """The engine's closed-form matrix equals per-pair HiGHS LPs."""
        model = AdditiveModel(make_small_problem())
        assert np.array_equal(
            model.evaluator.dominance_matrix(), dominance_oracle(model)
        )

    def test_rank_intervals_accept_evaluator(self, case_model):
        via_model = rank_intervals(case_model)
        via_engine = case_model.evaluator.rank_intervals()
        assert via_model == via_engine

    def test_rank_intervals_bracket_monte_carlo(self, case_model, case_mc):
        intervals = case_model.evaluator.rank_intervals()
        for name in case_model.alternative_names:
            stats = case_mc.statistics_for(name)
            assert intervals[name].best <= stats.minimum
            assert intervals[name].worst >= stats.maximum


# ----------------------------------------------------------------------
# Property: vectorized and scalar utilities agree on random problems
# ----------------------------------------------------------------------

def _random_problem(levels, weight_spread):
    scales = {"a": linguistic_0_3("a"), "b": linguistic_0_3("b")}
    table = PerformanceTable(
        scales,
        [
            Alternative(f"alt{i}", {"a": la, "b": lb})
            for i, (la, lb) in enumerate(levels)
        ],
    )
    hierarchy = Hierarchy(
        ObjectiveNode(
            "root",
            children=[
                ObjectiveNode("ca", attribute="a"),
                ObjectiveNode("cb", attribute="b"),
            ],
        )
    )
    weights = WeightSystem(
        hierarchy,
        {
            "ca": Interval(0.5 - weight_spread, 0.5 + weight_spread),
            "cb": Interval(0.5 - weight_spread, 0.5 + weight_spread),
        },
    )
    utilities = {
        "a": banded_discrete_utility(scales["a"]),
        "b": banded_discrete_utility(scales["b"]),
    }
    return DecisionProblem(hierarchy, table, utilities, weights)


@settings(max_examples=30, deadline=None)
@given(
    levels=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=2,
        max_size=6,
    ),
    weight_spread=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_vectorized_and_scalar_utilities_agree(levels, weight_spread, seed):
    """Scalar per-alternative dot products == the engine's batch matmul."""
    problem = _random_problem(levels, weight_spread)
    compiled = compile_problem(problem)
    evaluator = BatchEvaluator(compiled)
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(compiled.n_attributes), size=16)

    batch = evaluator.utilities_for_weights(weights)  # (n_alt, 16)
    for s in range(16):
        scalar = np.array(
            [
                sum(
                    weights[s, j] * compiled.u_avg[i, j]
                    for j in range(compiled.n_attributes)
                )
                for i in range(compiled.n_alternatives)
            ]
        )
        assert batch[:, s] == pytest.approx(scalar, abs=1e-12)

    # The three deterministic readings agree with explicit scalar sums.
    mins = evaluator.minimum_utilities()
    maxs = evaluator.maximum_utilities()
    for i in range(compiled.n_alternatives):
        assert mins[i] == pytest.approx(
            sum(
                compiled.w_low[j] * compiled.u_low[i, j]
                for j in range(compiled.n_attributes)
            ),
            abs=1e-12,
        )
        assert maxs[i] == pytest.approx(
            sum(
                compiled.w_up[j] * compiled.u_up[i, j]
                for j in range(compiled.n_attributes)
            ),
            abs=1e-12,
        )


class TestWorkspaceCompileCache:
    def test_cache_hit_on_identical_content(self, tmp_path):
        from repro.core import workspace

        workspace.clear_compile_cache()
        problem = make_small_problem()
        first = workspace.compile_cached(problem)
        second = workspace.compile_cached(make_small_problem())
        assert second is first
        info = workspace.compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_load_compiled_roundtrip(self, tmp_path):
        from repro.core import workspace

        workspace.clear_compile_cache()
        problem = make_small_problem()
        path = tmp_path / "small.json"
        workspace.save(problem, path)
        a = workspace.load_compiled(path)
        b = workspace.load_compiled(path)
        assert a is b
        assert isinstance(a, CompiledProblem)
        assert a.alternative_names == problem.alternative_names

    def test_cached_compiled_form_composes_with_additive_model(self):
        from repro.core import workspace

        workspace.clear_compile_cache()
        workspace.compile_cached(make_small_problem())
        fresh = make_small_problem()  # equal content, different object
        model = AdditiveModel(fresh, workspace.compile_cached(fresh))
        assert model.evaluate().best.name == "premium"
        with pytest.raises(ValueError):
            AdditiveModel(
                make_small_problem(), compile_problem(_random_problem([(1, 2)] * 2, 0.1))
            )

    def test_different_content_misses(self):
        from repro.core import workspace

        workspace.clear_compile_cache()
        workspace.compile_cached(make_small_problem())
        workspace.compile_cached(make_small_problem(missing_cell=True))
        assert workspace.compile_cache_info()["misses"] == 2

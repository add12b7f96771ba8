"""The engine's members axis: bit-identity with the scalar group loop.

Expected rankings come from the plain 2-D NumPy reference in
:mod:`repro.fuzz` over ``problem.with_weights(...)`` recompiled per
member, never from the stacked kernel under test.
"""

import json

import numpy as np
import pytest

from repro.core.engine import (
    BatchEvaluator,
    GroupResult,
    StackedEvaluator,
    StackedProblem,
    StackedRoster,
    compile_problem,
    compile_roster,
)
from repro.core.group import (
    GroupMember,
    aggregate_weights,
    borda_ranking,
    disagreement,
)
from repro.core.interval import Interval
from repro.core.weights import WeightSystem
from repro.fuzz import reference_readings

from ..conftest import make_small_problem


def reference_ranking(problem, weights):
    """Names by the reference order of ``problem`` recompiled under ``weights``."""
    compiled = compile_problem(problem.with_weights(weights))
    order = reference_readings(compiled)["order"]
    return tuple(compiled.alternative_names[i] for i in order)


def make_members(hierarchy, n=4, spread=0.15):
    """A deterministic roster with genuine (non-disjoint) disagreement."""
    nodes = [
        node.name
        for node in hierarchy.nodes()
        if node.name != hierarchy.root.name
    ]
    members = []
    for k in range(n):
        raw = {}
        for i, name in enumerate(nodes):
            factor = 1.0 + spread * ((k + i) % 3)
            raw[name] = Interval(0.8 * factor, 1.2 * factor)
        members.append(
            GroupMember(
                f"dm-{k}", WeightSystem.from_raw_intervals(hierarchy, raw)
            )
        )
    return members


@pytest.fixture()
def problem():
    return make_small_problem()


@pytest.fixture()
def members(problem):
    return make_members(problem.hierarchy)


@pytest.fixture()
def roster(problem, members):
    return compile_roster(members, problem.hierarchy)


class TestCompiledRoster:
    def test_shapes(self, roster, members, problem):
        assert roster.n_members == len(members)
        assert roster.n_attributes == len(problem.attribute_names)
        assert roster.w_avg.shape == (len(members), 3)
        assert roster.member_names == tuple(m.name for m in members)

    def test_weight_rows_match_per_member_compilation(
        self, problem, members, roster
    ):
        for k, member in enumerate(members):
            compiled = compile_problem(problem.with_weights(member.weights))
            assert np.array_equal(roster.w_low[k], compiled.w_low)
            assert np.array_equal(roster.w_avg[k], compiled.w_avg)
            assert np.array_equal(roster.w_up[k], compiled.w_up)

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            compile_roster([])

    def test_mismatched_member_hierarchies_rejected(self, members):
        other = make_small_problem(name="other")
        from repro.core.hierarchy import Hierarchy, ObjectiveNode

        h2 = Hierarchy(
            ObjectiveNode(
                "different",
                children=[
                    ObjectiveNode("only", attribute="price"),
                    ObjectiveNode("two", attribute="battery"),
                ],
            )
        )
        stranger = GroupMember(
            "stranger",
            WeightSystem(
                h2,
                {"only": Interval(0.4, 0.6), "two": Interval(0.4, 0.6)},
            ),
        )
        with pytest.raises(ValueError, match="different hierarchy"):
            compile_roster(members + [stranger])
        with pytest.raises(ValueError, match="do not match the"):
            compile_roster([stranger], other.hierarchy)

    def test_aggregated_unknown_method(self, roster):
        with pytest.raises(ValueError, match="intersection"):
            roster.aggregated("average")


class TestMemberAxisBitIdentity:
    def test_member_utilities_equal_scalar_matvec(
        self, problem, members, roster
    ):
        stacked = StackedEvaluator([compile_problem(problem)])
        tensor = stacked.group_member_utilities(StackedRoster([roster]))[0]
        for k, member in enumerate(members):
            scalar = reference_readings(
                compile_problem(problem.with_weights(member.weights))
            )["avg"]
            assert np.array_equal(tensor[k], scalar)

    def test_member_rankings_equal_scalar_evaluate(
        self, problem, members, roster
    ):
        evaluator = BatchEvaluator(compile_problem(problem))
        rankings = evaluator.group_result(roster).member_rankings
        for k, member in enumerate(members):
            assert rankings[k] == reference_ranking(problem, member.weights)

    def test_borda_equals_scalar_borda(self, problem, members, roster):
        evaluator = BatchEvaluator(compile_problem(problem))
        scalar_rankings = [
            reference_ranking(problem, m.weights) for m in members
        ]
        borda = evaluator.group_result(roster).borda
        assert borda == borda_ranking(scalar_rankings)

    @pytest.mark.parametrize("method", ["intersection", "hull"])
    def test_group_evaluation_equals_scalar_aggregate(
        self, problem, members, roster, method
    ):
        evaluator = BatchEvaluator(compile_problem(problem))
        weights = aggregate_weights(members, method)
        ref = reference_readings(
            compile_problem(problem.with_weights(weights))
        )
        got = evaluator.group_evaluation(roster, method)
        assert got.names_by_rank == reference_ranking(problem, weights)
        for row, i in zip(got, ref["order"]):
            assert (row.minimum, row.average, row.maximum) == (
                ref["min"][i],
                ref["avg"][i],
                ref["max"][i],
            )

    def test_roster_attribute_count_mismatch_rejected(self, roster):
        other = make_small_problem(name="other")
        stacked = StackedEvaluator(
            [compile_problem(other.restricted_to("quality"))]
        )
        with pytest.raises(ValueError, match="attributes"):
            stacked.group_member_utilities(StackedRoster([roster]))


class TestGroupResult:
    def test_payload_round_trip_exact(self, problem, roster):
        result = BatchEvaluator(compile_problem(problem)).group_result(roster)
        payload = json.loads(json.dumps(result.to_payload()))
        assert GroupResult.from_payload(payload) == result

    def test_best_prefers_consensus(self, problem, roster):
        result = BatchEvaluator(compile_problem(problem)).group_result(roster)
        assert result.consensus is not None
        assert result.best == result.consensus[0]
        assert result.disjoint == ()

    def test_max_disagreement_bounds(self, problem, roster):
        result = BatchEvaluator(compile_problem(problem)).group_result(roster)
        assert 0.0 <= result.max_disagreement <= 1.0
        assert result.n_members == roster.n_members


class TestStackedGroup:
    def test_stacked_results_equal_per_problem(self):
        problems = [
            make_small_problem(name="p0"),
            make_small_problem(missing_cell=True, name="p1"),
            make_small_problem(name="p2"),
        ]
        compiled = [compile_problem(p) for p in problems]
        rosters, expected = [], []
        for k, p in enumerate(problems):
            # p2's members are irreconcilable: no consensus.
            members = make_members(p.hierarchy, spread=0.5 if k == 2 else 0.15)
            roster = compile_roster(members, p.hierarchy)
            rosters.append(roster)
            rankings = tuple(
                reference_ranking(p, m.weights) for m in members
            )
            expected.append(
                GroupResult(
                    member_names=tuple(m.name for m in members),
                    member_rankings=rankings,
                    borda=borda_ranking(rankings),
                    tolerant=reference_ranking(
                        p, aggregate_weights(members, "hull")
                    ),
                    consensus=None
                    if k == 2
                    else reference_ranking(
                        p, aggregate_weights(members, "intersection")
                    ),
                    disjoint=roster.disjoint_nodes,
                    disagreement=tuple(disagreement(members).items()),
                )
            )
        assert expected[2].disjoint and not expected[0].disjoint
        stacked = StackedEvaluator(StackedProblem(compiled))
        assert stacked.group_results(StackedRoster(rosters)) == tuple(expected)

    def test_stacked_roster_validation(self, problem, members):
        roster = compile_roster(members, problem.hierarchy)
        smaller = compile_roster(members[:2], problem.hierarchy)
        with pytest.raises(ValueError, match="member names"):
            StackedRoster([roster, smaller])
        with pytest.raises(ValueError, match="at least one"):
            StackedRoster([])

    def test_stacked_size_mismatch_rejected(self, problem, members):
        roster = compile_roster(members, problem.hierarchy)
        stacked = StackedEvaluator(
            StackedProblem([compile_problem(problem)] * 2)
        )
        with pytest.raises(ValueError, match="problems"):
            stacked.group_results(StackedRoster([roster]))


class TestReweighted:
    def test_reweighted_shares_arrays_swaps_weights(self, problem):
        compiled = compile_problem(problem)
        w = np.full(compiled.n_attributes, 1.0 / compiled.n_attributes)
        view = compiled.reweighted(w, w, w)
        assert view.u_avg is compiled.u_avg
        assert np.array_equal(view.w_avg, w)
        assert np.array_equal(compiled.w_avg, compile_problem(problem).w_avg)

    def test_reweighted_shape_validation(self, problem):
        compiled = compile_problem(problem)
        bad = np.ones(compiled.n_attributes + 1)
        with pytest.raises(ValueError, match="shape"):
            compiled.reweighted(bad, bad, bad)

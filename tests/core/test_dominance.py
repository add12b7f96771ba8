"""Tests for dominance and potential optimality (§V screening)."""

import numpy as np
import pytest

from repro.core.dominance import (
    dominance_matrix,
    dominates,
    non_dominated,
    potentially_optimal,
    screen,
)
from repro.core.hierarchy import Hierarchy, ObjectiveNode
from repro.core.interval import Interval
from repro.core.model import AdditiveModel
from repro.core.performance import Alternative, PerformanceTable
from repro.core.problem import DecisionProblem
from repro.core.scales import linguistic_0_3
from repro.core.utility import banded_discrete_utility
from repro.core.weights import WeightSystem
from repro.fuzz import dominance_oracle


def flat_problem(rows, spread=0.3):
    """A flat 2-attribute problem with the given (a, b) level rows."""
    scales = {"a": linguistic_0_3("a"), "b": linguistic_0_3("b")}
    table = PerformanceTable(
        scales,
        [Alternative(f"alt{i}", {"a": ra, "b": rb}) for i, (ra, rb) in enumerate(rows)],
    )
    hierarchy = Hierarchy(
        ObjectiveNode(
            "root",
            children=[ObjectiveNode("ca", attribute="a"), ObjectiveNode("cb", attribute="b")],
        )
    )
    weights = WeightSystem(
        hierarchy,
        {"ca": Interval(0.5 - spread, 0.5 + spread),
         "cb": Interval(0.5 - spread, 0.5 + spread)},
    )
    utilities = {
        "a": banded_discrete_utility(scales["a"]),
        "b": banded_discrete_utility(scales["b"]),
    }
    return DecisionProblem(hierarchy, table, utilities, weights)


class TestPairwiseDominance:
    def test_clear_dominance(self):
        model = AdditiveModel(flat_problem([(3, 3), (1, 1)]))
        assert dominates(model, "alt0", "alt1")
        assert not dominates(model, "alt1", "alt0")

    def test_equal_levels_do_not_dominate(self):
        """Band overlap at equal levels blocks dominance both ways."""
        model = AdditiveModel(flat_problem([(2, 2), (2, 2)]))
        assert not dominates(model, "alt0", "alt1")
        assert not dominates(model, "alt1", "alt0")

    def test_adjacent_levels_dominate_weakly(self):
        """u_low(2) = u_up(1) = 0.4: the worst case ties, the best case
        is strictly positive — dominance holds (>= 0 with > somewhere)."""
        model = AdditiveModel(flat_problem([(2, 2), (1, 1)]))
        assert dominates(model, "alt0", "alt1")

    def test_trade_off_is_incomparable(self):
        model = AdditiveModel(flat_problem([(3, 0), (0, 3)]))
        assert not dominates(model, "alt0", "alt1")
        assert not dominates(model, "alt1", "alt0")

    def test_solvers_agree(self):
        """The closed-form matrix equals the per-pair HiGHS LPs."""
        model = AdditiveModel(flat_problem([(3, 3), (1, 1), (3, 0), (2, 2)]))
        assert np.array_equal(dominance_matrix(model), dominance_oracle(model))


class TestMatrixProperties:
    def test_irreflexive(self):
        model = AdditiveModel(flat_problem([(3, 2), (2, 3), (1, 1)]))
        matrix = dominance_matrix(model)
        assert not matrix.diagonal().any()

    def test_asymmetric(self):
        model = AdditiveModel(flat_problem([(3, 3), (2, 1), (1, 1), (0, 0)]))
        matrix = dominance_matrix(model)
        assert not (matrix & matrix.T).any()

    def test_transitive_on_case_study(self, case_model):
        matrix = dominance_matrix(case_model)
        n = matrix.shape[0]
        for i in range(n):
            for j in range(n):
                if matrix[i, j]:
                    for k in range(n):
                        if matrix[j, k]:
                            assert matrix[i, k], (
                                "dominance must be transitive"
                            )


class TestNonDominatedAndPO:
    def test_non_dominated_set_precise_best(self):
        """With the best level pinned at 1.0, (3,3) dominates (3,0):
        equal best levels give the adversary no slack."""
        model = AdditiveModel(flat_problem([(3, 3), (1, 1), (3, 0)]))
        assert set(non_dominated(model)) == {"alt0"}

    def test_imprecise_best_protects_equal_levels(self):
        """With best levels imprecise ([0.8, 1]), the adversary can put
        (3,0)'s best level above (3,3)'s — no dominance."""
        from repro.core.utility import banded_discrete_utility
        problem = flat_problem([(3, 3), (1, 1), (3, 0)])
        utilities = {
            attr: banded_discrete_utility(
                problem.table.scale_of(attr), best_is_precise=False
            )
            for attr in ("a", "b")
        }
        problem = DecisionProblem(
            problem.hierarchy, problem.table, utilities, problem.weights
        )
        model = AdditiveModel(problem)
        assert set(non_dominated(model)) == {"alt0", "alt2"}

    def test_potential_optimality_requires_a_winner_weighting(self):
        # alt2 (2,2) is never best: alt0 wins when a matters, alt1 when
        # b does, and at every weighting one of them beats alt2's best
        # case (their level-3 upper is 1.0 vs alt2's 0.6 / funct gap).
        model = AdditiveModel(flat_problem([(3, 2), (2, 3), (1, 1)], spread=0.4))
        po = potentially_optimal(model)
        assert "alt0" in po and "alt1" in po
        assert "alt2" not in po

    def test_singleton_among(self, case_model):
        assert potentially_optimal(case_model, among=["COMM"]) == ("COMM",)

    def test_unknown_among(self, case_model):
        with pytest.raises(KeyError):
            potentially_optimal(case_model, among=["Nope"])

    def test_screen_pipeline(self):
        model = AdditiveModel(flat_problem([(3, 3), (1, 1), (3, 0)]))
        result = screen(model)
        assert set(result.discarded) == {"alt1", "alt2"}
        assert set(result.survivors) == {"alt0"}
        assert set(result.non_dominated) >= set(result.potentially_optimal)


class TestCaseStudyScreening:
    def test_paper_screening_outcome(self, case_model):
        """§V: 20 of 23 non-dominated and potentially optimal."""
        result = screen(case_model)
        assert len(result.non_dominated) == 20
        assert len(result.potentially_optimal) == 20
        assert set(result.discarded) == {
            "Kanzaki Music", "MPEG7 Ontology", "Photography Ontology",
        }

    def test_best_ranked_is_potentially_optimal(self, case_model):
        assert "Media Ontology" in potentially_optimal(case_model)

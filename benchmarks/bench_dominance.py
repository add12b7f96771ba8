"""§V screening — closed-form non-dominance, LP potential optimality.

"20 out of the 23 MM ontologies are non-dominated and potentially
optimal.  As a result, this SA can only discard three MM ontologies."
The benchmark measures the complete screening: the 23 x 22 dominance
matrix in closed form (one box-intersect-simplex greedy over every
pair) plus 20 potential-optimality LPs through scipy/HiGHS.
"""

from conftest import report

from repro.casestudy.paper_results import DISCARDED_ADOPTED, DISCARDED_PAPER_TEXT
from repro.core.dominance import screen


def test_screening(benchmark, model):
    result = benchmark.pedantic(screen, args=(model,), rounds=3, iterations=1)
    assert len(result.non_dominated) == 20
    assert len(result.potentially_optimal) == 20
    assert set(result.discarded) == set(DISCARDED_ADOPTED)
    report(
        "§V dominance / potential-optimality screening",
        [
            "paper: 20 of 23 non-dominated and potentially optimal; "
            f"discarded (text): {', '.join(DISCARDED_PAPER_TEXT)}",
            "  (the text's 'DIG35' contradicts Fig. 10, where DIG35 is "
            "pinned at rank 5; we adopt MPEG7 Ontology — see DESIGN.md)",
            f"measured: {len(result.potentially_optimal)} of 23 survive; "
            f"discarded: {', '.join(result.discarded)}",
        ],
    )


def test_rank_intervals(benchmark, model, mc_result):
    """Attainable-rank intervals (partial-information companion to
    Fig. 10): every empirical Monte Carlo rank must fall inside."""
    from repro.core.dominance import dominance_matrix
    from repro.core.rankintervals import rank_intervals

    matrix = dominance_matrix(model)
    intervals = benchmark(rank_intervals, model, matrix)
    violations = 0
    for name in mc_result.names:
        stats = mc_result.statistics_for(name)
        if not (
            intervals[name].best <= stats.minimum
            and stats.maximum <= intervals[name].worst
        ):
            violations += 1
    assert violations == 0
    report(
        "Attainable-rank intervals vs Fig. 10 empirical ranges",
        [
            f"discarded candidates' best attainable ranks: "
            + ", ".join(
                f"{n}={intervals[n].best}"
                for n in DISCARDED_ADOPTED
            ),
            "all 23 empirical Monte Carlo rank ranges fall inside the "
            "LP-derived attainable-rank intervals",
        ],
    )

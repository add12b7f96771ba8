"""The imprecise additive MAUT engine — the paper's core contribution.

``repro.core`` reimplements the decision-analytic machinery of the GMAA
system the paper exercises: objective hierarchies (§II), imprecise
component utilities and hierarchical trade-off weights (§III), the
additive evaluation with minimum/average/maximum overall utilities
(§IV), and the three sensitivity analyses of §V (weight-stability
intervals, dominance / potential optimality, Monte Carlo simulation
over weights).  The dominance matrix is solved in closed form (the
feasible weights are a box intersected with the simplex); HiGHS LPs
run only for potential optimality and the per-pair ``dominates``
oracle.
"""

from .dominance import (
    DominanceResult,
    dominance_matrix,
    dominates,
    non_dominated,
    potentially_optimal,
    screen,
)
from .genreg import RegistrySpec, generate_problem, preset, write_registry
from .engine import (
    BatchEvaluator,
    CompiledProblem,
    compile_problem,
    rank_matrix,
)
from .elicitation import (
    UtilityElicitation,
    WeightElicitation,
    elicit_weight_system,
)
from .group import GroupDecision, GroupMember, aggregate_weights, borda_ranking
from .hierarchy import Hierarchy, ObjectiveNode
from .interval import Interval, hull, intersect_all
from .model import AdditiveModel, Evaluation, RankedAlternative, evaluate
from .montecarlo import (
    BoxplotSummary,
    MonteCarloResult,
    RankStatistics,
    sample_in_intervals,
    sample_rank_order,
    sample_simplex,
    simulate,
)
from .performance import Alternative, PerformanceTable, UncertainValue
from .problem import DecisionProblem
from .ranking import (
    footrule_distance,
    kendall_tau,
    rank_vector,
    spearman_rho,
    top_k_overlap,
)
from .rankintervals import RankInterval, rank_intervals
from .scales import MISSING, ContinuousScale, DiscreteScale, linguistic_0_3
from .stability import StabilityReport, stability_interval, stability_report
from .utility import (
    MISSING_UTILITY,
    DiscreteUtility,
    PiecewiseLinearUtility,
    banded_discrete_utility,
    linear_utility,
)
from .weights import (
    WeightSystem,
    equal_weights,
    rank_order_centroid,
    rank_sum_weights,
    swing_weights,
    tradeoff_intervals,
)
from .workspace import compile_cached, load, load_compiled, save

__all__ = [
    # batch engine
    "BatchEvaluator",
    "CompiledProblem",
    "compile_problem",
    "rank_matrix",
    "compile_cached",
    "load_compiled",
    # interval
    "Interval",
    "hull",
    "intersect_all",
    # scales & performances
    "MISSING",
    "DiscreteScale",
    "ContinuousScale",
    "linguistic_0_3",
    "Alternative",
    "PerformanceTable",
    "UncertainValue",
    # utilities
    "MISSING_UTILITY",
    "DiscreteUtility",
    "PiecewiseLinearUtility",
    "linear_utility",
    "banded_discrete_utility",
    # structure & weights
    "Hierarchy",
    "ObjectiveNode",
    "WeightSystem",
    "tradeoff_intervals",
    "rank_order_centroid",
    "rank_sum_weights",
    "equal_weights",
    "swing_weights",
    # problem & evaluation
    "DecisionProblem",
    "AdditiveModel",
    "Evaluation",
    "RankedAlternative",
    "evaluate",
    # sensitivity analyses
    "StabilityReport",
    "stability_interval",
    "stability_report",
    "DominanceResult",
    "dominates",
    "dominance_matrix",
    "non_dominated",
    "potentially_optimal",
    "screen",
    "RankInterval",
    "rank_intervals",
    # elicitation
    "UtilityElicitation",
    "WeightElicitation",
    "elicit_weight_system",
    "MonteCarloResult",
    "RankStatistics",
    "BoxplotSummary",
    "simulate",
    "sample_simplex",
    "sample_rank_order",
    "sample_in_intervals",
    # group decisions
    "GroupMember",
    "GroupDecision",
    "aggregate_weights",
    "borda_ranking",
    # ranking comparison
    "rank_vector",
    "kendall_tau",
    "spearman_rho",
    "footrule_distance",
    "top_k_overlap",
    # persistence
    "save",
    "load",
    # registry generation
    "RegistrySpec",
    "preset",
    "generate_problem",
    "write_registry",
]

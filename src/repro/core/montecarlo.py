"""Monte Carlo sensitivity analysis (§V, Figs. 9-10).

"Using Monte Carlo simulation techniques simultaneous changes can be
made to the weights and generate results that can be easily analyzed
statistically to provide more insight into the multi-attribute model
recommendations."  The paper runs 10,000 simulations and inspects a
multiple boxplot of the rank distributions (Fig. 9) plus a statistics
table — mode, minimum, maximum, mean, standard deviation and the
25th/50th/75th percentiles (Fig. 10).

Three classes of simulation are supported, exactly as §V lists them:

* ``random`` — attribute weights completely at random (uniform on the
  weight simplex; no knowledge of relative importance),
* ``rank_order`` — random weights preserving the total attribute rank
  order of the elicited averages (:func:`sample_rank_order` also takes
  a partial order),
* ``intervals`` — weights drawn inside the elicited Fig. 5 intervals,
  renormalised onto the simplex.

Component utilities are taken at their class averages by default
("changes can be made to the weights").  Two sampling extensions are
available:

* ``sample_utilities="missing"`` — draw a fresh utility in [0, 1] for
  every *missing* performance (each unknown cell is an independent
  unknown fact; the paper's ref. [18] assigns it the whole [0, 1]
  interval), keeping elicited class utilities at their averages.  This
  is the setting that reproduces the Fig. 10 pattern where exactly the
  candidates with unknown performances have fluctuating ranks while
  fully-known candidates sit still.
* ``sample_utilities=True`` (or ``"all"``) — additionally draw every
  component utility inside its class envelope, shared across
  alternatives that sit on the same level, which preserves the
  coupling a utility *function* imposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .engine import (
    BatchEvaluator,
    CompiledProblem,
    compile_problem,
    sample_in_intervals,
    sample_rank_order,
    sample_simplex,
)
from .engine import _performance_key as id_key  # noqa: F401 (re-export)
from .model import AdditiveModel
from .problem import DecisionProblem

__all__ = [
    "sample_simplex",
    "sample_rank_order",
    "sample_in_intervals",
    "RankStatistics",
    "MonteCarloResult",
    "simulate",
]


def missing_mask(problem: DecisionProblem, model: AdditiveModel) -> np.ndarray:
    """Boolean (n_alternatives, n_attributes) mask of unknown cells."""
    if problem is model.problem:
        return model.compiled.missing.copy()
    from .scales import MISSING

    mask = np.zeros((model.n_alternatives, model.n_attributes), dtype=bool)
    for i, alt in enumerate(problem.table.alternatives):
        for j, attr in enumerate(model.attribute_names):
            mask[i, j] = alt.performance(attr) is MISSING
    return mask


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RankStatistics:
    """One row of the Fig. 10 statistics table."""

    name: str
    mode: int
    minimum: int
    maximum: int
    mean: float
    std: float
    p25: float
    p50: float
    p75: float

    @property
    def fluctuation(self) -> int:
        """Total rank spread over the simulation (max - min)."""
        return self.maximum - self.minimum


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary of one alternative's rank distribution.

    Fig. 9 presents exactly this as a multiple boxplot: whiskers at the
    extremes, box from the 25th to the 75th percentile, the median
    inside.
    """

    name: str
    whisker_low: float
    q1: float
    median: float
    q3: float
    whisker_high: float


class MonteCarloResult:
    """Rank distributions from a Monte Carlo run.

    ``ranks[s, i]`` is the 1-based rank of alternative ``i`` in
    simulation ``s``.
    """

    def __init__(
        self,
        names: Sequence[str],
        ranks: np.ndarray,
        method: str,
        acceptance_rate: float = 1.0,
    ) -> None:
        ranks = np.asarray(ranks)
        if ranks.ndim != 2 or ranks.shape[1] != len(names):
            raise ValueError(
                f"ranks must be (n_simulations, {len(names)}), got {ranks.shape}"
            )
        self.names: Tuple[str, ...] = tuple(names)
        self.ranks = ranks
        self.method = method
        self.acceptance_rate = acceptance_rate
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def n_simulations(self) -> int:
        return int(self.ranks.shape[0])

    def ranks_of(self, name: str) -> np.ndarray:
        try:
            return self.ranks[:, self._index[name]]
        except KeyError:
            raise KeyError(f"no alternative named {name!r}") from None

    # ------------------------------------------------------------------
    def statistics_for(self, name: str) -> RankStatistics:
        r = self.ranks_of(name)
        counts = np.bincount(r, minlength=len(self.names) + 1)
        return RankStatistics(
            name=name,
            mode=int(counts.argmax()),
            minimum=int(r.min()),
            maximum=int(r.max()),
            mean=float(r.mean()),
            std=float(r.std(ddof=0)),
            p25=float(np.percentile(r, 25)),
            p50=float(np.percentile(r, 50)),
            p75=float(np.percentile(r, 75)),
        )

    def statistics(self) -> Tuple[RankStatistics, ...]:
        """The Fig. 10 table, one row per alternative (input order)."""
        return tuple(self.statistics_for(name) for name in self.names)

    def boxplot_summary(self) -> Tuple[BoxplotSummary, ...]:
        """The Fig. 9 multiple boxplot, one entry per alternative."""
        result = []
        for name in self.names:
            r = self.ranks_of(name)
            result.append(
                BoxplotSummary(
                    name=name,
                    whisker_low=float(r.min()),
                    q1=float(np.percentile(r, 25)),
                    median=float(np.percentile(r, 50)),
                    q3=float(np.percentile(r, 75)),
                    whisker_high=float(r.max()),
                )
            )
        return tuple(result)

    # ------------------------------------------------------------------
    def ever_best(self) -> Tuple[str, ...]:
        """Alternatives that attain rank 1 in at least one simulation.

        §V: "Only two MM ontologies — Media Ontology and Boemie VDO —
        were ranked best across all 10,000 simulations."
        """
        hits = (self.ranks == 1).any(axis=0)
        return tuple(name for i, name in enumerate(self.names) if hits[i])

    def names_by_mean_rank(self) -> Tuple[str, ...]:
        order = np.argsort(self.ranks.mean(axis=0), kind="stable")
        return tuple(self.names[i] for i in order)

    def top_k_by_mean(self, k: int) -> Tuple[str, ...]:
        return self.names_by_mean_rank()[:k]

    def max_fluctuation(self, names: Optional[Sequence[str]] = None) -> int:
        """Largest rank spread among ``names`` (default: all).

        §V: "the rankings for the best five MM ontologies fluctuate by
        at most two positions throughout the simulation".
        """
        targets = self.names if names is None else tuple(names)
        return max(self.statistics_for(n).fluctuation for n in targets)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def simulate(
    problem_or_model: Union[DecisionProblem, AdditiveModel, CompiledProblem],
    method: str = "intervals",
    n_simulations: int = 10_000,
    seed: Optional[int] = None,
    sample_utilities: Union[bool, str] = False,
) -> MonteCarloResult:
    """Run one of §V's three Monte Carlo simulation classes.

    ``method`` is ``"random"``, ``"rank_order"`` (the total order of the
    elicited average weights) or ``"intervals"``; ``seed`` seeds a
    fresh ``numpy.random.default_rng`` stream.
    ``sample_utilities``: ``False`` keeps component utilities at their
    class averages; ``"missing"`` draws each unknown performance's
    utility uniformly in [0, 1] per simulation (the ref.-[18] model);
    ``True``/``"all"`` additionally samples every component utility
    inside its class envelope (shared per level across alternatives).

    The whole run is a single array program over the problem's
    compiled form, run by the engine's one-member stack
    (:class:`repro.core.engine.BatchEvaluator`): weight scenarios,
    component-utility draws, overall utilities and ranks are tensors of
    leading dimension ``n_simulations`` — there is no Python loop over
    simulations or alternatives.
    """
    if isinstance(problem_or_model, DecisionProblem):
        compiled = compile_problem(problem_or_model)
    else:
        compiled = problem_or_model  # AdditiveModel or CompiledProblem
    return BatchEvaluator(compiled).simulate(
        method=method,
        n_simulations=n_simulations,
        seed=seed,
        sample_utilities=sample_utilities,
    )

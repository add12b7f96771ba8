"""Vectorized batch evaluation engine.

The paper's workflow — additive MAUT evaluation (§IV), the §V
screening and the 10,000-run Monte Carlo sensitivity analysis — is the
hot path of this reproduction.  This module lowers a
:class:`~repro.core.problem.DecisionProblem` into dense NumPy arrays
*once* (:class:`CompiledProblem`) and evaluates everything downstream
as array programs over ``(n_problems, n_scenarios, n_alternatives,
n_attributes)`` tensors — no Python-level loop over simulations or
alternatives.

One evaluator: :class:`StackedEvaluator` and the module-level kernels
it calls (:func:`sample_weights`, :func:`rank_matrix`,
:func:`stacked_dominance`) are the only implementation of every
evaluation.  A single problem is the ``P = 1`` view,
:class:`BatchEvaluator`, which runs a one-member stack and returns
slice ``[0]``.  The independent check is the plain 2-D NumPy reference
in :mod:`repro.fuzz` (``reference_readings`` /
``reference_monte_carlo``), which ``repro fuzz`` compares bit-for-bit
with the kernel.

Layering: this module sits *below* :mod:`repro.core.model`,
:mod:`repro.core.montecarlo` and :mod:`repro.core.dominance`; they keep
their public, paper-exact APIs and delegate the numeric work here.  The
result-object imports in the evaluators are deferred so the
dependency arrows at import time only point downward.

Compiled layout
---------------

``u_low``/``u_avg``/``u_up``
    ``(n_alternatives, n_attributes)`` component-utility envelopes —
    the lower bound, class-average and upper bound of every cell of the
    performance table pushed through its utility function.
``w_low``/``w_avg``/``w_up``
    ``(n_attributes,)`` elicited weight bounds and normalised averages.
``missing``
    boolean ``(n_alternatives, n_attributes)`` mask of unknown cells
    (the ref.-[18] "whole [0, 1] interval" facts).
``key_low``/``key_up``/``alt_key``/``key_count``
    the utility-*class* structure used by full utility sampling: per
    attribute, the distinct performance values define keys ordered by
    average utility; every alternative points at its key.  Padded to
    the maximum key count so one ``(n_scenarios, n_attributes,
    max_keys)`` uniform draw covers all attributes at once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import stage as _stage
from .interval import Interval
from .performance import UncertainValue
from .problem import DecisionProblem
from .scales import MISSING
from .weights import WeightSystem

__all__ = [
    "CompiledProblem",
    "StackedProblem",
    "CompiledRoster",
    "StackedRoster",
    "GroupResult",
    "BatchEvaluator",
    "StackedEvaluator",
    "compile_problem",
    "delta_compile",
    "compile_roster",
    "stack_problems",
    "rank_matrix",
    "sample_simplex",
    "sample_rank_order",
    "sample_in_intervals",
    "sample_weights",
    "stacked_dominance",
    "weight_polytope",
]

_FEAS_TOL = 1e-9


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

def _utility_triplet(fn, performance) -> Tuple[float, float, float]:
    """(lower, average, upper) component utility of one performance."""
    if performance is MISSING:
        interval = fn.utility(MISSING)
        return interval.lower, interval.midpoint, interval.upper
    if isinstance(performance, UncertainValue):
        at_min = fn.utility(performance.minimum)
        at_avg = fn.utility(performance.average)
        at_max = fn.utility(performance.maximum)
        lower = min(at_min.lower, at_avg.lower, at_max.lower)
        upper = max(at_min.upper, at_avg.upper, at_max.upper)
        return lower, at_avg.midpoint, upper
    interval = fn.utility(performance)
    return interval.lower, interval.midpoint, interval.upper


def _performance_key(value: object) -> object:
    """A hashable identity for a performance value (MISSING included)."""
    if value is MISSING:
        return "__missing__"
    return float(value)


class CompiledProblem:
    """A decision problem lowered to dense arrays, built once.

    Everything the sensitivity analyses touch — utility envelopes,
    weight bounds, the missing-cell mask and the utility-class key
    structure — lives here as plain ``float64``/``bool``/``intp``
    arrays, so the evaluators never walk the object graph again.

    Attributes
    ----------
    u_low, u_avg, u_up : ndarray of float64, shape (n_alt, n_att)
        Component-utility envelope per (alternative, attribute):
        interval lower bound, midpoint/average, interval upper bound.
    missing : ndarray of bool, shape (n_alt, n_att)
        True where the performance is :data:`~repro.core.scales.MISSING`
        (utility envelope pinned to ``[0, 1]``).
    w_low, w_avg, w_up : ndarray of float64, shape (n_att,)
        Attribute-level weight bounds and normalized averages.
    key_low, key_up : ndarray of float64, shape (n_att, max_keys)
        Distinct utility-class values per attribute, padded to the
        per-problem maximum and sorted by utility midpoint.
    key_count : ndarray of intp, shape (n_att,)
        How many leading entries of ``key_low``/``key_up`` are real.
    alt_key : ndarray of intp, shape (n_att, n_alt)
        Each alternative's index into its attribute's key row.
    problem : DecisionProblem or None
        The source object graph; ``None`` on the ``.npz`` fast path
        (:meth:`from_arrays`).
    """

    def __init__(self, problem: DecisionProblem) -> None:
        """Walk ``problem``'s object graph once and build every array."""
        self.problem = problem
        self.name = problem.name
        self.attribute_names: Tuple[str, ...] = problem.hierarchy.attribute_names
        self.alternative_names: Tuple[str, ...] = problem.table.alternative_names
        n_alt = len(self.alternative_names)
        n_att = len(self.attribute_names)

        self.u_low = np.zeros((n_alt, n_att))
        self.u_avg = np.zeros((n_alt, n_att))
        self.u_up = np.zeros((n_alt, n_att))
        self.missing = np.zeros((n_alt, n_att), dtype=bool)
        for i, alt in enumerate(problem.table.alternatives):
            for j, attr in enumerate(self.attribute_names):
                fn = problem.utility_function(attr)
                perf = alt.performance(attr)
                lo, avg, up = _utility_triplet(fn, perf)
                self.u_low[i, j] = lo
                self.u_avg[i, j] = avg
                self.u_up[i, j] = up
                self.missing[i, j] = perf is MISSING

        intervals = [
            problem.weights.attribute_weight_interval(a)
            for a in self.attribute_names
        ]
        averages = problem.weights.attribute_averages()
        self.w_low = np.array([iv.lower for iv in intervals])
        self.w_up = np.array([iv.upper for iv in intervals])
        self.w_avg = np.array([averages[a] for a in self.attribute_names])

        self._compile_utility_classes(problem)

    def _compile_utility_classes(self, problem: DecisionProblem) -> None:
        """The per-attribute utility-class key tensors (padded)."""
        n_alt = len(self.alternative_names)
        n_att = len(self.attribute_names)
        key_lows: List[np.ndarray] = []
        key_ups: List[np.ndarray] = []
        alt_key = np.zeros((n_att, n_alt), dtype=np.intp)
        for j, attr in enumerate(self.attribute_names):
            fn = problem.utility_function(attr)
            values = []
            for alt in problem.table.alternatives:
                perf = alt.performance(attr)
                if isinstance(perf, UncertainValue):
                    perf = perf.average
                values.append(perf)
            keys: List[object] = []
            for v in values:
                if v not in keys:
                    keys.append(v)
            # Order keys by their average utility so the monotone
            # accumulation in full utility sampling never flips
            # preference.
            keys.sort(key=lambda v: fn.utility(v).midpoint)
            index = {_performance_key(v): k for k, v in enumerate(keys)}
            alt_key[j] = [index[_performance_key(v)] for v in values]
            key_intervals = [fn.utility(v) for v in keys]
            key_lows.append(np.array([iv.lower for iv in key_intervals]))
            key_ups.append(np.array([iv.upper for iv in key_intervals]))

        self.key_count = np.array([len(k) for k in key_lows], dtype=np.intp)
        max_keys = int(self.key_count.max()) if n_att else 0
        self.key_low = np.zeros((n_att, max_keys))
        self.key_up = np.zeros((n_att, max_keys))
        for j in range(n_att):
            k = len(key_lows[j])
            self.key_low[j, :k] = key_lows[j]
            self.key_up[j, :k] = key_ups[j]
        self.alt_key = alt_key

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        name: str,
        attribute_names: Sequence[str],
        alternative_names: Sequence[str],
        u_low: np.ndarray,
        u_avg: np.ndarray,
        u_up: np.ndarray,
        missing: np.ndarray,
        w_low: np.ndarray,
        w_avg: np.ndarray,
        w_up: np.ndarray,
        key_low: np.ndarray,
        key_up: np.ndarray,
        key_count: np.ndarray,
        alt_key: np.ndarray,
        problem: Optional[DecisionProblem] = None,
    ) -> "CompiledProblem":
        """Rebuild a compiled form straight from its dense arrays.

        This is the loading path of the persisted ``.npz`` compile
        cache (:mod:`repro.core.workspace`): no object graph is walked,
        no utility function is evaluated.  ``problem`` stays ``None``
        unless the caller also parsed the workspace JSON.
        """
        self = cls.__new__(cls)
        self.problem = problem
        self.name = name
        self.attribute_names = tuple(str(a) for a in attribute_names)
        self.alternative_names = tuple(str(a) for a in alternative_names)
        self.u_low = np.asarray(u_low, dtype=float)
        self.u_avg = np.asarray(u_avg, dtype=float)
        self.u_up = np.asarray(u_up, dtype=float)
        self.missing = np.asarray(missing, dtype=bool)
        self.w_low = np.asarray(w_low, dtype=float)
        self.w_avg = np.asarray(w_avg, dtype=float)
        self.w_up = np.asarray(w_up, dtype=float)
        self.key_low = np.asarray(key_low, dtype=float)
        self.key_up = np.asarray(key_up, dtype=float)
        self.key_count = np.asarray(key_count, dtype=np.intp)
        self.alt_key = np.asarray(alt_key, dtype=np.intp)
        n_alt, n_att = self.u_low.shape
        if self.missing.shape != (n_alt, n_att) or self.w_low.shape != (n_att,):
            raise ValueError("compiled arrays have inconsistent shapes")
        if self.alt_key.shape != (n_att, n_alt):
            raise ValueError("alt_key must be (n_attributes, n_alternatives)")
        return self

    @property
    def n_alternatives(self) -> int:
        """Number of alternatives (rows of the utility envelopes)."""
        return len(self.alternative_names)

    @property
    def n_attributes(self) -> int:
        """Number of leaf attributes (columns of the utility envelopes)."""
        return len(self.attribute_names)

    @property
    def shape(self) -> Tuple[int, int]:
        """(n_alternatives, n_attributes) — the stacking group key."""
        return (len(self.alternative_names), len(self.attribute_names))

    def alternative_index(self, name: str) -> int:
        """The row index of alternative ``name`` (KeyError if absent)."""
        try:
            return self.alternative_names.index(name)
        except ValueError:
            raise KeyError(f"no alternative named {name!r}") from None

    def reweighted(
        self,
        w_low: np.ndarray,
        w_avg: np.ndarray,
        w_up: np.ndarray,
    ) -> "CompiledProblem":
        """A shallow view of this compiled form with other weight vectors.

        The utility envelopes, masks and key tensors are shared (not
        copied); only the ``(n_attributes,)`` weight arrays differ.
        This is how group decision support evaluates aggregated
        (consensus / tolerant) weight systems through exactly the same
        array program as the member weights — one
        :class:`BatchEvaluator` over the reweighted view is
        bit-identical to compiling ``problem.with_weights(...)``.
        """
        clone = CompiledProblem.__new__(CompiledProblem)
        clone.__dict__.update(self.__dict__)
        clone.w_low = np.asarray(w_low, dtype=float)
        clone.w_avg = np.asarray(w_avg, dtype=float)
        clone.w_up = np.asarray(w_up, dtype=float)
        n_att = len(self.attribute_names)
        for arr in (clone.w_low, clone.w_avg, clone.w_up):
            if arr.shape != (n_att,):
                raise ValueError(
                    f"weight vectors must have shape ({n_att},), "
                    f"got {arr.shape}"
                )
        return clone


def compile_problem(problem: DecisionProblem) -> CompiledProblem:
    """Lower ``problem`` into the dense-array form evaluated in batch."""
    return CompiledProblem(problem)


def delta_compile(
    old: CompiledProblem,
    problem: DecisionProblem,
    changed_rows: Sequence[int],
) -> CompiledProblem:
    """Patch an existing compiled form for a partially edited problem.

    ``old`` is the compiled form of the *previous* version of
    ``problem`` (typically mmapped off the ``.npz`` artifact), and
    ``changed_rows`` names every alternative row whose performances
    differ — callers derive it from the per-component fingerprints the
    registry index stores (schema v3).  Only those rows' component
    -utility triplets are recomputed; unchanged rows are copied
    bit-for-bit.  The weight vectors and the utility-class key tensors
    are always rebuilt (both are cheap relative to the per-row utility
    walk, and the key structure is global: one edited cell can merge or
    split a utility class).

    The result is **bit-identical** to ``compile_problem(problem)``
    provided the problem's structure — hierarchy, scales, utility
    functions, alternative order — is unchanged and ``changed_rows``
    covers every row whose performances differ; both preconditions are
    validated by hash upstream and the cheap shape/name parts are
    re-checked here (ValueError on mismatch).
    """
    new_names = tuple(problem.table.alternative_names)
    new_attrs = tuple(problem.hierarchy.attribute_names)
    if new_names != tuple(old.alternative_names) or new_attrs != tuple(
        old.attribute_names
    ):
        raise ValueError(
            "delta_compile needs an unchanged alternative/attribute "
            "structure; recompile from scratch instead"
        )
    self = CompiledProblem.__new__(CompiledProblem)
    self.problem = problem
    self.name = problem.name
    self.attribute_names = new_attrs
    self.alternative_names = new_names
    # copies, not views: the old arrays may be read-only mmaps
    self.u_low = np.array(old.u_low, dtype=float)
    self.u_avg = np.array(old.u_avg, dtype=float)
    self.u_up = np.array(old.u_up, dtype=float)
    self.missing = np.array(old.missing, dtype=bool)
    alternatives = problem.table.alternatives
    for i in changed_rows:
        alt = alternatives[i]
        for j, attr in enumerate(new_attrs):
            fn = problem.utility_function(attr)
            perf = alt.performance(attr)
            lo, avg, up = _utility_triplet(fn, perf)
            self.u_low[i, j] = lo
            self.u_avg[i, j] = avg
            self.u_up[i, j] = up
            self.missing[i, j] = perf is MISSING

    intervals = [
        problem.weights.attribute_weight_interval(a) for a in new_attrs
    ]
    averages = problem.weights.attribute_averages()
    self.w_low = np.array([iv.lower for iv in intervals])
    self.w_up = np.array([iv.upper for iv in intervals])
    self.w_avg = np.array([averages[a] for a in new_attrs])

    self._compile_utility_classes(problem)
    return self


def _as_compiled(
    source: Union[DecisionProblem, CompiledProblem, object]
) -> CompiledProblem:
    """Accept a problem, a compiled problem, or an AdditiveModel."""
    if isinstance(source, CompiledProblem):
        return source
    if isinstance(source, DecisionProblem):
        return CompiledProblem(source)
    compiled = getattr(source, "compiled", None)
    if isinstance(compiled, CompiledProblem):
        return compiled
    raise TypeError(
        "expected a DecisionProblem, CompiledProblem or AdditiveModel, "
        f"got {type(source).__name__}"
    )


# ----------------------------------------------------------------------
# Stacking — many same-shape problems as one tensor set
# ----------------------------------------------------------------------

class StackedProblem:
    """Same-shape compiled problems stacked into one tensor set.

    A repository-scale registry holds thousands of decision problems
    that share one shape (e.g. every reuse shortlist compares 8
    candidates on the 14 §II criteria).  Stacking them turns the
    per-problem ``(n_alternatives, n_attributes)`` arrays into
    ``(n_problems, n_alternatives, n_attributes)`` tensors so
    :class:`StackedEvaluator` can answer every deterministic question
    and run every Monte Carlo sweep for the whole stack in one array
    program — no Python loop over problems.

    ``source_indices`` remembers each member's position in the original
    registry so results merge back deterministically after grouping.

    Attributes
    ----------
    u_low, u_avg, u_up, missing : ndarray, shape (P, n_alt, n_att)
        Member envelopes/masks stacked along a leading problem axis.
    w_low, w_avg, w_up : ndarray of float64, shape (P, n_att)
        Member weight bounds, stacked.
    key_low, key_up : ndarray of float64, shape (P, n_att, max_keys)
        Utility-class keys re-padded to the stack-wide maximum.
    key_count : ndarray of intp, shape (P, n_att)
    alt_key : ndarray of intp, shape (P, n_att, n_alt)
    members : tuple of CompiledProblem
    source_indices : tuple of int
        Each member's registry position (defaults to ``0..P-1``).
    """

    def __init__(
        self,
        members: Sequence[CompiledProblem],
        source_indices: Optional[Sequence[int]] = None,
    ) -> None:
        """Stack ``members`` (all sharing one shape) into tensors."""
        if not members:
            raise ValueError("a stack needs at least one compiled problem")
        shape = members[0].shape
        for member in members[1:]:
            if member.shape != shape:
                raise ValueError(
                    f"cannot stack shape {member.shape} with {shape}; "
                    "group problems with stack_problems() first"
                )
        self.members: Tuple[CompiledProblem, ...] = tuple(members)
        if source_indices is None:
            source_indices = range(len(members))
        self.source_indices: Tuple[int, ...] = tuple(
            int(i) for i in source_indices
        )
        if len(self.source_indices) != len(self.members):
            raise ValueError("source_indices must align with members")
        self.names: Tuple[str, ...] = tuple(m.name for m in members)

        # A one-member stack (the per-problem view) shares its member's
        # arrays as zero-copy [None] views instead of copying them.
        stack = np.stack if len(members) > 1 else (lambda a: a[0][None])
        self.u_low = stack([m.u_low for m in members])
        self.u_avg = stack([m.u_avg for m in members])
        self.u_up = stack([m.u_up for m in members])
        self.missing = stack([m.missing for m in members])
        self.w_low = stack([m.w_low for m in members])
        self.w_avg = stack([m.w_avg for m in members])
        self.w_up = stack([m.w_up for m in members])

        # Key tensors are padded per member; re-pad to the stack-wide
        # maximum so one (P, n_att, max_keys) tensor covers everyone.
        max_keys = max(m.key_low.shape[1] for m in members)
        p, (n_alt, n_att) = len(members), shape
        self.key_low = np.zeros((p, n_att, max_keys))
        self.key_up = np.zeros((p, n_att, max_keys))
        for idx, m in enumerate(members):
            k = m.key_low.shape[1]
            self.key_low[idx, :, :k] = m.key_low
            self.key_up[idx, :, :k] = m.key_up
        self.key_count = stack([m.key_count for m in members])
        self.alt_key = stack([m.alt_key for m in members])

    # ------------------------------------------------------------------
    @property
    def n_problems(self) -> int:
        """Stack size ``P`` (the leading tensor axis)."""
        return len(self.members)

    @property
    def n_alternatives(self) -> int:
        """Alternatives per member (every member shares this)."""
        return self.u_low.shape[1]

    @property
    def n_attributes(self) -> int:
        """Leaf attributes per member (every member shares this)."""
        return self.u_low.shape[2]

    @property
    def shape(self) -> Tuple[int, int]:
        """The shared per-member ``(n_alternatives, n_attributes)``."""
        return (self.n_alternatives, self.n_attributes)

    def __len__(self) -> int:
        """Stack size ``P`` — same as :attr:`n_problems`."""
        return len(self.members)


def stack_problems(
    compiled: Sequence[CompiledProblem],
) -> List[StackedProblem]:
    """Group compiled problems into same-shape stacks.

    Groups form in first-seen order and keep each member's original
    index, so downstream merges are deterministic regardless of how the
    registry interleaves shapes.
    """
    groups: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
    for i, c in enumerate(compiled):
        groups.setdefault(c.shape, []).append(i)
    return [
        StackedProblem([compiled[i] for i in indices], indices)
        for indices in groups.values()
    ]


# ----------------------------------------------------------------------
# Group decision support — the members axis
# ----------------------------------------------------------------------

_DISAGREEMENT_TOL = 1e-12


@dataclass(frozen=True)
class GroupResult:
    """Everything a group evaluation of one decision problem produces.

    The tensor complement of the scalar :class:`repro.core.group`
    workflow: per-member rankings, the two aggregated group rankings
    (consensus = interval intersection, tolerant = interval hull),
    Borda aggregation of the member rankings, and the per-objective
    disagreement profile.  ``consensus`` is ``None`` when the members'
    local weight intervals are disjoint on at least one objective (the
    objectives are listed in ``disjoint``) — the documented fallback is
    the tolerant ranking, which :attr:`best` applies.

    The payload round-trips exactly: rankings are name tuples and
    disagreement scores are binary64 floats, both of which JSON
    preserves bit-for-bit (:meth:`to_payload` / :meth:`from_payload`).
    """

    member_names: Tuple[str, ...]
    member_rankings: Tuple[Tuple[str, ...], ...]
    borda: Tuple[str, ...]
    tolerant: Tuple[str, ...]
    consensus: Optional[Tuple[str, ...]]
    disjoint: Tuple[str, ...]
    disagreement: Tuple[Tuple[str, float], ...]

    @property
    def best(self) -> str:
        """The group's top alternative: consensus, else tolerant hull."""
        ranking = self.consensus if self.consensus is not None else self.tolerant
        return ranking[0]

    @property
    def n_members(self) -> int:
        """How many decision makers the result aggregates."""
        return len(self.member_names)

    @property
    def max_disagreement(self) -> float:
        """The largest per-objective disagreement score (0 when empty)."""
        return max((score for _, score in self.disagreement), default=0.0)

    def to_payload(self) -> Dict[str, object]:
        """A JSON-ready dict preserving every ranking and float exactly."""
        return {
            "member_names": list(self.member_names),
            "member_rankings": [list(r) for r in self.member_rankings],
            "borda": list(self.borda),
            "tolerant": list(self.tolerant),
            "consensus": (
                list(self.consensus) if self.consensus is not None else None
            ),
            "disjoint": list(self.disjoint),
            "disagreement": [[name, score] for name, score in self.disagreement],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "GroupResult":
        """Rebuild a result from :meth:`to_payload` output (exact)."""
        consensus = payload["consensus"]
        return cls(
            member_names=tuple(payload["member_names"]),
            member_rankings=tuple(
                tuple(r) for r in payload["member_rankings"]
            ),
            borda=tuple(payload["borda"]),
            tolerant=tuple(payload["tolerant"]),
            consensus=tuple(consensus) if consensus is not None else None,
            disjoint=tuple(payload["disjoint"]),
            disagreement=tuple(
                (str(name), float(score))
                for name, score in payload["disagreement"]
            ),
        )


class CompiledRoster:
    """A member roster lowered to dense per-member weight tensors.

    The group analogue of :class:`CompiledProblem`: every decision
    maker's elicited :class:`~repro.core.weights.WeightSystem` is
    lowered once into ``(n_members, n_attributes)`` weight tensors and
    ``(n_members, n_nodes)`` local-interval tensors, so the evaluators
    answer every group question as one array program over a members
    axis — no Python loop over decision makers.

    Attributes
    ----------
    member_names : tuple of str
        Decision-maker names, roster order (the members axis order).
    attribute_names : tuple of str
        Leaf attributes in hierarchy order (matches the compiled
        problem the roster is evaluated against).
    node_names : tuple of str
        Every non-root objective, hierarchy order — the axis of the
        local-interval tensors and the disagreement profile.
    w_low, w_avg, w_up : ndarray of float64, shape (M, n_att)
        Per-member global attribute weight bounds and normalised
        averages — exactly what compiling
        ``problem.with_weights(member.weights)`` produces per member.
    node_low, node_up : ndarray of float64, shape (M, n_nodes)
        Per-member local weight interval bounds per non-root objective.
    hierarchy : Hierarchy
        The shared objective hierarchy (aggregated weight systems are
        rebuilt over it).
    """

    def __init__(self, members: Sequence[object], hierarchy=None) -> None:
        """Lower ``members`` (objects with ``.name`` / ``.weights``)."""
        members = list(members)
        if not members:
            raise ValueError("a group needs at least one member")
        first = members[0].weights.hierarchy
        first_names = {n.name for n in first.nodes()}
        for member in members[1:]:
            names = {n.name for n in member.weights.hierarchy.nodes()}
            if names != first_names:
                raise ValueError(
                    f"member {member.name!r} uses a different hierarchy "
                    "(objective names do not match)"
                )
        if hierarchy is not None:
            expected = {n.name for n in hierarchy.nodes()}
            for member in members:
                names = {n.name for n in member.weights.hierarchy.nodes()}
                if names != expected:
                    raise ValueError(
                        f"member {member.name!r} weights do not match the "
                        "problem hierarchy"
                    )
        else:
            hierarchy = first
        self.hierarchy = hierarchy
        self.member_names: Tuple[str, ...] = tuple(m.name for m in members)
        self.attribute_names: Tuple[str, ...] = hierarchy.attribute_names
        root = hierarchy.root.name
        self.node_names: Tuple[str, ...] = tuple(
            n.name for n in hierarchy.nodes() if n.name != root
        )

        m = len(members)
        n_att = len(self.attribute_names)
        n_nodes = len(self.node_names)
        self.w_low = np.zeros((m, n_att))
        self.w_avg = np.zeros((m, n_att))
        self.w_up = np.zeros((m, n_att))
        self.node_low = np.zeros((m, n_nodes))
        self.node_up = np.zeros((m, n_nodes))
        for k, member in enumerate(members):
            ws = member.weights
            averages = ws.attribute_averages()
            for j, attr in enumerate(self.attribute_names):
                iv = ws.attribute_weight_interval(attr)
                self.w_low[k, j] = iv.lower
                self.w_up[k, j] = iv.upper
                self.w_avg[k, j] = averages[attr]
            for j, node in enumerate(self.node_names):
                iv = ws.local_interval(node)
                self.node_low[k, j] = iv.lower
                self.node_up[k, j] = iv.upper

        self._aggregated: Dict[str, WeightSystem] = {}
        self._aggregated_vectors: Dict[
            str, Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    @property
    def n_members(self) -> int:
        """Roster size ``M`` (the members tensor axis)."""
        return len(self.member_names)

    @property
    def n_attributes(self) -> int:
        """Leaf attributes per member weight vector."""
        return len(self.attribute_names)

    @property
    def disjoint_nodes(self) -> Tuple[str, ...]:
        """Objectives whose member intervals have an empty intersection.

        Hierarchy order — the first entry is the node the scalar
        ``aggregate_weights(..., "intersection")`` names in its error.
        """
        empty = self.node_low.max(axis=0) > self.node_up.min(axis=0)
        return tuple(
            name for name, bad in zip(self.node_names, empty) if bad
        )

    def disagreement(self) -> Dict[str, float]:
        """Per-objective disagreement in ``[0, 1]``, hierarchy order.

        One array program over the ``(M, n_nodes)`` local-interval
        tensors, bit-identical to the scalar
        :func:`repro.core.group.disagreement` loop: ``1 -
        |intersection| / |hull|`` per node, 0 for a degenerate hull, 1
        for a disjoint pair.
        """
        hull_w = self.node_up.max(axis=0) - self.node_low.min(axis=0)
        inter_lo = self.node_low.max(axis=0)
        inter_hi = self.node_up.min(axis=0)
        safe_hull = np.where(hull_w > _DISAGREEMENT_TOL, hull_w, 1.0)
        scores = np.where(
            hull_w <= _DISAGREEMENT_TOL,
            0.0,
            np.where(
                inter_lo > inter_hi,
                1.0,
                1.0 - (inter_hi - inter_lo) / safe_hull,
            ),
        )
        return {
            name: float(score)
            for name, score in zip(self.node_names, scores)
        }

    def aggregated(self, method: str = "intersection") -> WeightSystem:
        """The group weight system under one aggregation method.

        ``"intersection"`` keeps only weights every member accepts (a
        ``ValueError`` names the first objective with disjoint member
        intervals); ``"hull"`` covers every member's interval.  The
        per-node combination runs as array min/max over the members
        axis — exact, so the result is identical to the scalar
        sequential fold.
        """
        if method not in ("intersection", "hull"):
            raise ValueError(
                f"method must be 'intersection' or 'hull', got {method!r}"
            )
        cached = self._aggregated.get(method)
        if cached is not None:
            return cached
        if method == "hull":
            low = self.node_low.min(axis=0)
            up = self.node_up.max(axis=0)
        else:
            disjoint = self.disjoint_nodes
            if disjoint:
                raise ValueError(
                    f"members disagree irreconcilably on objective "
                    f"{disjoint[0]!r}: weight intervals are disjoint"
                )
            low = self.node_low.max(axis=0)
            up = self.node_up.min(axis=0)
        local = {
            name: Interval(float(lo), float(hi))
            for name, lo, hi in zip(self.node_names, low, up)
        }
        system = WeightSystem.from_raw_intervals(self.hierarchy, local)
        self._aggregated[method] = system
        return system

    def aggregated_vectors(
        self, method: str = "intersection"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(w_low, w_avg, w_up)`` of the aggregated weight system.

        The same lowering :class:`CompiledProblem` applies to a
        problem's own weight system, so evaluating these vectors
        through a :meth:`CompiledProblem.reweighted` view is
        bit-identical to compiling ``problem.with_weights(aggregated)``.
        """
        cached = self._aggregated_vectors.get(method)
        if cached is not None:
            return cached
        ws = self.aggregated(method)
        averages = ws.attribute_averages()
        intervals = [
            ws.attribute_weight_interval(a) for a in self.attribute_names
        ]
        vectors = (
            np.array([iv.lower for iv in intervals]),
            np.array([averages[a] for a in self.attribute_names]),
            np.array([iv.upper for iv in intervals]),
        )
        self._aggregated_vectors[method] = vectors
        return vectors


def compile_roster(
    members: Sequence[object], hierarchy=None
) -> CompiledRoster:
    """Lower a member roster into the dense per-member weight tensors.

    ``members`` are objects with ``.name`` and ``.weights`` attributes
    (typically :class:`repro.core.group.GroupMember`).  ``hierarchy``
    optionally pins the decision problem's hierarchy the roster must
    match; by default the first member's hierarchy is used.
    """
    return CompiledRoster(members, hierarchy)


class StackedRoster:
    """Per-problem rosters stacked along the problem axis.

    The group analogue of :class:`StackedProblem`: one
    :class:`CompiledRoster` per stack member (every roster lists the
    same decision makers over the same attribute count) stacked into
    ``(n_problems, n_members, n_attributes)`` weight tensors, so
    :class:`StackedEvaluator` runs the whole registry's group
    evaluation as one array program.
    """

    def __init__(self, rosters: Sequence[CompiledRoster]) -> None:
        """Stack ``rosters`` (same member names, same attribute count)."""
        rosters = list(rosters)
        if not rosters:
            raise ValueError("a stacked roster needs at least one roster")
        names = rosters[0].member_names
        n_att = rosters[0].n_attributes
        for roster in rosters[1:]:
            if roster.member_names != names:
                raise ValueError(
                    "cannot stack rosters with different member names"
                )
            if roster.n_attributes != n_att:
                raise ValueError(
                    "cannot stack rosters with different attribute counts"
                )
        self.rosters: Tuple[CompiledRoster, ...] = tuple(rosters)
        self.member_names: Tuple[str, ...] = names
        self.w_low = np.stack([r.w_low for r in rosters])
        self.w_avg = np.stack([r.w_avg for r in rosters])
        self.w_up = np.stack([r.w_up for r in rosters])

    @property
    def n_problems(self) -> int:
        """Stack size ``P`` (the leading tensor axis)."""
        return len(self.rosters)

    @property
    def n_members(self) -> int:
        """Decision makers per roster (every roster shares this)."""
        return len(self.member_names)

    @property
    def n_attributes(self) -> int:
        """Leaf attributes per member weight vector."""
        return self.w_avg.shape[2]

    def __len__(self) -> int:
        """Stack size ``P`` — same as :attr:`n_problems`."""
        return len(self.rosters)


# ----------------------------------------------------------------------
# Weight generators (the three §V simulation classes)
# ----------------------------------------------------------------------

def sample_simplex(
    n_attributes: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform samples from the weight simplex.

    The classic exponential-spacings construction: normalised i.i.d.
    exponentials are uniform on ``{w >= 0 : sum w = 1}``.  This is §V's
    first simulation class — "attribute weights completely at random
    (there is no knowledge whatsoever of the relative importance of the
    attributes)".
    """
    if n_attributes < 1:
        raise ValueError("need at least one attribute")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    raw = rng.exponential(scale=1.0, size=(n_samples, n_attributes))
    return raw / raw.sum(axis=1, keepdims=True)


def sample_rank_order(
    groups: Sequence[Sequence[int]],
    n_attributes: int,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Simplex samples preserving a total or partial attribute rank order.

    ``groups`` lists attribute indices from most to least important;
    attributes inside one group are unordered relative to each other
    (the *partial* order case).  Singleton groups everywhere give a
    total order.  Sampling: draw uniformly on the simplex, sort each
    sample descending, hand the largest values to the first group
    (shuffled within the group), the next largest to the second, and so
    on — the standard construction for rank-order-constrained simplex
    sampling.
    """
    flat = [i for group in groups for i in group]
    if sorted(flat) != list(range(n_attributes)):
        raise ValueError(
            "groups must partition the attribute indices "
            f"0..{n_attributes - 1}; got {groups!r}"
        )
    base = sample_simplex(n_attributes, n_samples, rng)
    base.sort(axis=1)
    base = base[:, ::-1]  # descending: position 0 = largest weight
    result = np.empty_like(base)
    cursor = 0
    for group in groups:
        size = len(group)
        block = base[:, cursor:cursor + size]
        if size == 1:
            result[:, group[0]] = block[:, 0]
        else:
            # Shuffle the block's columns independently per sample so
            # within-group order is uniform.
            perm = np.argsort(rng.random((n_samples, size)), axis=1)
            shuffled = np.take_along_axis(block, perm, axis=1)
            for k, attr in enumerate(group):
                result[:, attr] = shuffled[:, k]
        cursor += size
    return result


def sample_in_intervals(
    lower: np.ndarray,
    upper: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    reject_outside: bool = False,
    max_batches: int = 200,
) -> Tuple[np.ndarray, float]:
    """Weights drawn within elicited intervals, renormalised to sum 1.

    GMAA's third simulation class: "attribute weights can be randomly
    assigned values taking into account the elicited weight intervals"
    (Fig. 5).  Each attribute weight is drawn uniformly in its interval
    and the vector is divided by its sum.  With ``reject_outside`` the
    renormalised vector must also remain inside the intervals (the
    normalised-box polytope); samples violating that are redrawn.

    Returns ``(weights, acceptance_rate)``; the acceptance rate is 1.0
    when no rejection was requested.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-D arrays of equal length")
    if np.any(lower < 0) or np.any(lower > upper):
        raise ValueError("need 0 <= lower <= upper per attribute")
    if float(lower.sum()) > 1.0 + 1e-9 or float(upper.sum()) < 1.0 - 1e-9:
        raise ValueError(
            "weight intervals do not intersect the simplex: "
            f"sum of lowers {lower.sum():.4f}, sum of uppers {upper.sum():.4f}"
        )
    n = lower.shape[0]
    if not reject_outside:
        raw = rng.uniform(lower, upper, size=(n_samples, n))
        return raw / raw.sum(axis=1, keepdims=True), 1.0

    accepted: List[np.ndarray] = []
    drawn = kept = 0
    tol = 1e-12
    for _ in range(max_batches):
        raw = rng.uniform(lower, upper, size=(n_samples, n))
        w = raw / raw.sum(axis=1, keepdims=True)
        ok = np.all(w >= lower - tol, axis=1) & np.all(w <= upper + tol, axis=1)
        drawn += n_samples
        kept += int(ok.sum())
        if ok.any():
            accepted.append(w[ok])
        if kept >= n_samples:
            break
    if kept < n_samples:
        raise RuntimeError(
            f"interval rejection sampling accepted only {kept} of the "
            f"requested {n_samples} samples after {drawn} draws; relax the "
            "intervals or disable reject_outside"
        )
    stacked = np.vstack(accepted)[:n_samples]
    return stacked, kept / drawn


def sample_weights(
    compiled: CompiledProblem,
    method: str,
    n_simulations: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, float]:
    """(weights, acceptance_rate) for one §V simulation class.

    ``method`` is ``"random"`` (uniform on the simplex),
    ``"rank_order"`` (the total order of the elicited average weights)
    or ``"intervals"`` (uniform in the elicited weight box,
    renormalised).
    """
    n = compiled.n_attributes
    if method == "random":
        return sample_simplex(n, n_simulations, rng), 1.0
    if method == "rank_order":
        order = np.argsort(-compiled.w_avg, kind="stable")
        groups = [[int(i)] for i in order]
        return sample_rank_order(groups, n, n_simulations, rng), 1.0
    if method == "intervals":
        return sample_in_intervals(
            compiled.w_low, compiled.w_up, n_simulations, rng
        )
    raise ValueError(
        f"unknown method {method!r}; expected 'random', 'rank_order' "
        "or 'intervals'"
    )


# ----------------------------------------------------------------------
# Ranking
# ----------------------------------------------------------------------

def rank_matrix(utilities: np.ndarray) -> np.ndarray:
    """Per-scenario 1-based ranks from a ``(..., n_alt)`` utility array.

    Ties resolve in alternative (last-axis) order, matching the stable
    tie-break the deterministic evaluation uses.
    """
    order = np.argsort(-utilities, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


# ----------------------------------------------------------------------
# Dominance (closed-form box-intersect-simplex screening)
# ----------------------------------------------------------------------

def _check_box_meets_simplex(w_low: np.ndarray, w_up: np.ndarray) -> None:
    """Reject weight boxes (any leading shape) that miss the simplex."""
    low_sum = np.asarray(w_low.sum(axis=-1)).ravel()
    up_sum = np.asarray(w_up.sum(axis=-1)).ravel()
    bad = np.flatnonzero((low_sum > 1.0 + 1e-7) | (up_sum < 1.0 - 1e-7))
    if bad.size:
        k = bad[0]
        raise ValueError(
            "weight intervals do not intersect the simplex: "
            f"sum of lowers {low_sum[k]:.4f}, sum of uppers {up_sum[k]:.4f}"
        )


def weight_polytope(
    compiled: CompiledProblem,
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[float, float]]]:
    """(A_eq, b_eq, bounds) of ``W``: elicited box intersect simplex."""
    _check_box_meets_simplex(compiled.w_low, compiled.w_up)
    n = compiled.n_attributes
    bounds = list(zip(compiled.w_low.tolist(), compiled.w_up.tolist()))
    return np.ones((1, n)), np.array([1.0]), bounds


def box_simplex_argmin(c: np.ndarray, bounds) -> np.ndarray:
    """The exact minimiser of ``c . w`` over ``{low <= w <= up, sum w = 1}``.

    The dominance polytope is always a coordinate box intersected with
    the weight simplex, so its linear programs have a closed-form
    greedy solution (fractional knapsack): start every weight at its
    lower bound and spend the residual ``1 - sum(low)`` on the
    cheapest coordinates first (ties in coordinate order).

    Vectorised: ``c`` is ``(..., n_att)`` and ``bounds`` holds
    ``(low, up)`` pairs, shape ``(..., n_att, 2)`` — a list of pairs for
    one polytope — broadcast against ``c``; the minimisers come back in
    the broadcast ``(..., n_att)`` shape.  Out-of-tolerance inputs (the
    box missing the simplex by more than :func:`weight_polytope`
    permits) degrade to the nearest box vertex instead of raising.
    """
    bounds = np.asarray(bounds, dtype=float)
    c, low, up = np.broadcast_arrays(
        np.asarray(c, dtype=float), bounds[..., 0], bounds[..., 1]
    )
    order = np.argsort(c, axis=-1, kind="stable")
    low_sorted = np.take_along_axis(low, order, axis=-1)
    room = np.take_along_axis(up, order, axis=-1) - low_sorted
    # Room already spent on the cheaper coordinates (exclusive cumsum).
    spent = np.zeros(room.shape)
    np.cumsum(room[..., :-1], axis=-1, out=spent[..., 1:])
    residual = 1.0 - low.sum(axis=-1, keepdims=True)
    w = np.empty(c.shape)
    np.put_along_axis(
        w, order, low_sorted + np.clip(residual - spent, 0.0, room), axis=-1
    )
    return w


def box_simplex_minimum(c: np.ndarray, bounds) -> np.ndarray:
    """Exact minimum of ``c . w`` over the box-intersect-simplex polytope.

    Broadcasts like :func:`box_simplex_argmin`; a single ``c`` gives a
    scalar.
    """
    c = np.asarray(c, dtype=float)
    return (c * box_simplex_argmin(c, bounds)).sum(axis=-1)


def stacked_dominance(
    u_low: np.ndarray,
    u_up: np.ndarray,
    w_low: np.ndarray,
    w_up: np.ndarray,
) -> np.ndarray:
    """Dominance matrices for a stack: ``(P, n, n)`` boolean tensor.

    ``D[p, i, j]`` iff alternative ``i`` dominates ``j`` in member
    ``p``.  Inputs are the stacked envelopes ``(P, n, n_att)`` and
    weight bounds ``(P, n_att)``; a single problem is the ``P = 1``
    view (``u_low[None]`` ...).  The whole stack is one broadcast
    program over the ``(P, n, n, n_att)`` pairwise envelope
    differences, solved in closed form by :func:`box_simplex_minimum`
    — no LP and no loop over pairs.

    Decision rule per off-diagonal pair (the per-pair HiGHS oracle
    :func:`repro.core.dominance.dominates` states the same rule):

    * worst case: ``min_{w in W} (u_low_i - u_up_j) . w >= -tol``;
    * strictness: ``max_{w in W} (u_up_i - u_low_j) . w > tol``.

    The strictness LP of ``(i, j)`` is the negated worst-case LP of
    ``(j, i)``, so one solve over all ordered pairs settles both.
    """
    _check_box_meets_simplex(w_low, w_up)
    bounds = np.stack([w_low, w_up], axis=-1)[:, None, None]
    worst = box_simplex_minimum(u_low[:, :, None, :] - u_up[:, None, :, :], bounds)
    weak = (worst >= -_FEAS_TOL) & ~np.eye(u_low.shape[1], dtype=bool)
    return weak & ~weak.transpose(0, 2, 1)


# ----------------------------------------------------------------------
# The stacked evaluator — many problems per array program
# ----------------------------------------------------------------------

class StackedEvaluator:
    """Array-program evaluation over a whole stack of problems.

    The one implementation of every evaluation kernel: rankings,
    utility intervals, weight-scenario sweeps, dominance matrices,
    Monte Carlo sweeps and the group members axis evaluate the entire
    stack at once, with one leading ``n_problems`` axis on every
    tensor and no Python loop over scenarios or alternatives.  A single
    problem is the ``P = 1`` view (:class:`BatchEvaluator`).  Every
    per-slice operation has the shape a plain 2-D program over one
    problem would use, so member ``p``'s outputs do not depend on
    which other problems share the stack; ``repro.fuzz`` checks them
    bit-for-bit against such a 2-D reference.

    Monte Carlo keeps one seeded RNG stream *per member* — the draws
    loop over members (that is the contract that makes a member's
    output independent of its neighbours) while utilities, corrections
    and ranks evaluate stacked.
    """

    def __init__(self, stacked: Union[StackedProblem, Sequence[CompiledProblem]]) -> None:
        """Wrap a stack (or stack a compiled-problem sequence)."""
        if not isinstance(stacked, StackedProblem):
            stacked = StackedProblem(list(stacked))
        self.stacked = stacked

    # -- deterministic readings ----------------------------------------
    def minimum_utilities(self) -> np.ndarray:
        """(P, n_alternatives) lower overall utilities."""
        s = self.stacked
        return np.matmul(s.u_low, s.w_low[:, :, None])[..., 0]

    def average_utilities(self) -> np.ndarray:
        """(P, n_alternatives) average overall utilities."""
        s = self.stacked
        return np.matmul(s.u_avg, s.w_avg[:, :, None])[..., 0]

    def maximum_utilities(self) -> np.ndarray:
        """(P, n_alternatives) upper overall utilities."""
        s = self.stacked
        return np.matmul(s.u_up, s.w_up[:, :, None])[..., 0]

    def ranking_orders(self) -> np.ndarray:
        """(P, n_alt) alternative indices by decreasing average utility.

        Per problem, ties break on the alternative name (the Fig. 6
        ranking rule) via one lexsort over the whole stack.
        """
        return self._order_by(self.average_utilities())

    def _order_by(self, values: np.ndarray) -> np.ndarray:
        """Indices by decreasing ``values`` along the last axis, ties by name.

        ``values`` is ``(P, ..., n_alt)``; member ``p``'s alternative
        names break ties, in one lexsort over the whole tensor.
        """
        names = np.array([m.alternative_names for m in self.stacked.members])
        names = names.reshape(
            names.shape[:1] + (1,) * (values.ndim - 2) + names.shape[1:]
        )
        return np.lexsort(
            (np.broadcast_to(names, values.shape), -values), axis=-1
        )

    def evaluate_all(self) -> Tuple[object, ...]:
        """One Fig. 6 :class:`~repro.core.model.Evaluation` per member."""
        from .model import Evaluation, RankedAlternative

        mins = self.minimum_utilities()
        avgs = self.average_utilities()
        maxs = self.maximum_utilities()
        orders = self._order_by(avgs)
        evaluations = []
        for p, member in enumerate(self.stacked.members):
            rows = tuple(
                RankedAlternative(
                    name=member.alternative_names[i],
                    minimum=float(mins[p, i]),
                    average=float(avgs[p, i]),
                    maximum=float(maxs[p, i]),
                    rank=rank,
                )
                for rank, i in enumerate(orders[p], start=1)
            )
            evaluations.append(Evaluation(member.name, rows))
        return tuple(evaluations)

    # -- weight-scenario sweeps ----------------------------------------
    def utilities_for_weights(self, weights: np.ndarray) -> np.ndarray:
        """Overall utilities under per-problem weight scenarios.

        ``weights`` is ``(n_problems, n_scenarios, n_attributes)``;
        component utilities sit at their class averages.  Returns
        ``(n_problems, n_scenarios, n_alternatives)``.
        """
        w = np.asarray(weights, dtype=float)
        s = self.stacked
        if w.ndim != 3 or w.shape[0] != s.n_problems or w.shape[2] != s.n_attributes:
            raise ValueError(
                f"expected weights of shape ({s.n_problems}, n_scenarios, "
                f"{s.n_attributes}), got {w.shape}"
            )
        return np.matmul(w, s.u_avg.transpose(0, 2, 1))

    def scenario_ranks(self, weights: np.ndarray) -> np.ndarray:
        """(P, n_scenarios, n_alt) 1-based ranks per weight scenario."""
        return rank_matrix(self.utilities_for_weights(weights))

    # -- §V: Monte Carlo over the whole stack --------------------------
    def _member_rngs(
        self,
        seed: Union[None, int, Sequence[Optional[int]]],
    ) -> List[np.random.Generator]:
        """One independent generator per member (the exactness contract)."""
        p = self.stacked.n_problems
        if seed is None or isinstance(seed, (int, np.integer)):
            seeds: List[Optional[int]] = [seed] * p  # type: ignore[list-item]
        else:
            seeds = list(seed)
            if len(seeds) != p:
                raise ValueError(
                    f"need one seed per member: expected {p}, got {len(seeds)}"
                )
        return [np.random.default_rng(s) for s in seeds]

    def monte_carlo_ranks(
        self,
        method: str = "intervals",
        n_simulations: int = 10_000,
        seed: Union[None, int, Sequence[Optional[int]]] = None,
        sample_utilities: Union[bool, str] = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One §V simulation class for every member at once.

        Returns ``(ranks, acceptance_rates)`` with ``ranks`` of shape
        ``(n_problems, n_simulations, n_alternatives)``.  ``seed`` is a
        single seed applied to every member's own fresh RNG stream, or
        a per-member sequence; member ``p``'s rank slice equals
        ``BatchEvaluator(members[p]).monte_carlo_ranks(seed=seed_p)``
        exactly.  ``sample_utilities``: ``False`` keeps component
        utilities at their class averages; ``"missing"`` draws each
        unknown cell's utility uniformly in [0, 1] (the ref.-[18]
        model); ``True``/``"all"`` samples every component utility
        inside its class envelope.
        """
        if n_simulations < 1:
            raise ValueError("n_simulations must be positive")
        s = self.stacked
        rngs = self._member_rngs(seed)

        # Per-member draws (the RNG streams), stacked evaluation below;
        # the per-problem view keeps its one draw as a [None] view.
        if s.n_problems == 1:
            w, a = sample_weights(s.members[0], method, n_simulations, rngs[0])
            weights, acceptance = w[None], np.array([a], dtype=float)
        else:
            weights = np.empty((s.n_problems, n_simulations, s.n_attributes))
            acceptance = np.ones(s.n_problems)
            for p, member in enumerate(s.members):
                weights[p], acceptance[p] = sample_weights(
                    member, method, n_simulations, rngs[p]
                )

        utilities = self._monte_carlo_utilities(
            weights, rngs, sample_utilities
        )
        return rank_matrix(utilities), acceptance

    def _monte_carlo_utilities(
        self,
        weights: np.ndarray,
        rngs: Sequence[np.random.Generator],
        sample_utilities: Union[bool, str],
    ) -> np.ndarray:
        """(P, S, n_alt) overall utilities for stacked weight scenarios."""
        if sample_utilities in (True, "all"):
            u = self._sampled_utility_tensor(weights.shape[1], rngs)
            return np.einsum("psaj,psj->psa", u, weights)
        if sample_utilities is not False and sample_utilities != "missing":
            raise ValueError(
                f"sample_utilities must be False, True, 'all' or 'missing', "
                f"got {sample_utilities!r}"
            )
        utilities = np.matmul(weights, self.stacked.u_avg.transpose(0, 2, 1))
        if sample_utilities == "missing":
            self._apply_missing_corrections(utilities, weights, rngs)
        return utilities

    def _apply_missing_corrections(
        self,
        utilities: np.ndarray,
        weights: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """The ref.-[18] missing-cell draws, added in place.

        A member with missing cells draws one uniform ``(S, n_cells)``
        block from its own RNG stream (cells in row-major order) and
        adds ``w_j * (draw - u_avg)`` per cell with an unbuffered
        ``np.add.at``, so corrections to one alternative accumulate in
        cell order.  A member without missing cells draws nothing.
        """
        n_sims = weights.shape[1]
        for k, member in enumerate(self.stacked.members):
            rows, cols = np.nonzero(member.missing)
            if not len(rows):
                continue
            draws = rngs[k].uniform(0.0, 1.0, size=(n_sims, len(rows)))
            delta = draws - member.u_avg[rows, cols][None, :]
            np.add.at(
                utilities[k], (slice(None), rows), weights[k][:, cols] * delta
            )

    def _sampled_utility_tensor(
        self, n_simulations: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Full utility sampling for the stack: (P, S, n_alt, n_att).

        Per attribute, one draw per utility class shared by every
        alternative on the same level — the coupling that makes a draw
        a utility *function* — then made monotone along the preference
        order with a cumulative max.  Draws per member over the
        member's *own* padded key tensor (so a member's RNG stream does
        not depend on the stack-wide padding), then monotonises and
        gathers the whole stack at once.
        """
        s = self.stacked
        max_keys = s.key_low.shape[2]
        draws = np.zeros(
            (s.n_problems, n_simulations, s.n_attributes, max_keys)
        )
        for p, member in enumerate(s.members):
            k = member.key_low.shape[1]
            draws[p, :, :, :k] = rngs[p].uniform(
                member.key_low[None, :, :],
                member.key_up[None, :, :],
                size=(n_simulations, member.n_attributes, k),
            )
        draws = np.maximum.accumulate(draws, axis=3)
        # Advanced-index gather: u[p, s, i, j] = draws[p, s, j, key] with
        # key = alt_key[p, j, i].
        alt_key_t = s.alt_key.transpose(0, 2, 1)  # (P, n_alt, n_att)
        return draws[
            np.arange(s.n_problems)[:, None, None, None],
            np.arange(n_simulations)[None, :, None, None],
            np.arange(s.n_attributes)[None, None, None, :],
            alt_key_t[:, None, :, :],
        ]

    def simulate_all(self, **kwargs) -> Tuple[object, ...]:
        """Full §V Monte Carlo per member, as MonteCarloResult objects."""
        from .montecarlo import MonteCarloResult

        method = kwargs.get("method", "intervals")
        ranks, acceptance = self.monte_carlo_ranks(**kwargs)
        return tuple(
            MonteCarloResult(
                member.alternative_names,
                ranks[p],
                method,
                float(acceptance[p]),
            )
            for p, member in enumerate(self.stacked.members)
        )

    # -- §V: screening --------------------------------------------------
    def dominance_matrices(self) -> np.ndarray:
        """(P, n, n) stacked dominance tensor (one closed-form screen)."""
        s = self.stacked
        return stacked_dominance(s.u_low, s.u_up, s.w_low, s.w_up)

    def rank_intervals_all(self) -> Tuple[dict, ...]:
        """Attainable-rank intervals per member, from one stacked screen."""
        from .rankintervals import rank_intervals as _rank_intervals

        matrices = self.dominance_matrices()
        return tuple(
            _rank_intervals(member, matrix=matrices[p])
            for p, member in enumerate(self.stacked.members)
        )

    # -- group decision support over the whole stack --------------------
    def _check_stacked_roster(self, roster: StackedRoster) -> None:
        s = self.stacked
        if roster.n_problems != s.n_problems:
            raise ValueError(
                f"stacked roster covers {roster.n_problems} problems but "
                f"the stack holds {s.n_problems}"
            )
        if roster.n_attributes != s.n_attributes:
            raise ValueError(
                f"stacked roster covers {roster.n_attributes} attributes "
                f"but the stack has {s.n_attributes}"
            )

    def group_member_utilities(self, roster: StackedRoster) -> np.ndarray:
        """(P, n_members, n_alt) per-member average overall utilities.

        One batched matmul over both the problem and the members axes;
        slice ``[p, m]`` is bit-identical to the scalar per-member
        evaluation of problem ``p`` under member ``m``'s weights.
        """
        self._check_stacked_roster(roster)
        s = self.stacked
        return np.matmul(
            s.u_avg[:, None, :, :], roster.w_avg[:, :, :, None]
        )[..., 0]

    def group_results(self, roster: StackedRoster) -> Tuple[GroupResult, ...]:
        """One :class:`GroupResult` per stack member, evaluated stacked.

        Member utilities, ranking orders and Borda points run over the
        full ``(P, M, n_alt)`` tensors; the aggregated (consensus /
        tolerant) rankings rank a stack of reweighted members, exactly
        as :meth:`BatchEvaluator.group_evaluation` does.  ``consensus``
        is ``None``, with the offending objectives listed in
        ``disjoint``, when the member intervals are irreconcilable.
        """
        self._check_stacked_roster(roster)
        s = self.stacked
        m, n = roster.n_members, s.n_alternatives
        orders = self._order_by(self.group_member_utilities(roster))

        # Borda: 1-based ranks (the inverse permutations of the
        # orders), reduced over the members axis.
        ranks = orders.argsort(axis=-1) + 1
        points = m * n - ranks.sum(axis=1)
        borda_orders = self._order_by(points)

        # Aggregated rankings: every member reweighted by its roster's
        # aggregated vectors and ranked as one stack, the path
        # BatchEvaluator.group_evaluation takes for a single problem.
        def aggregated_orders(method):
            views, ok = [], []
            for c, r in zip(s.members, roster.rosters):
                try:
                    views.append(c.reweighted(*r.aggregated_vectors(method)))
                    ok.append(True)
                except ValueError:  # irreconcilable intervals: no consensus
                    views.append(c)
                    ok.append(False)
            return StackedEvaluator(views).ranking_orders(), ok

        tol_orders, _ = aggregated_orders("hull")
        cons_orders, cons_ok = aggregated_orders("intersection")

        def named(k, order):
            return tuple(s.members[k].alternative_names[i] for i in order)

        return tuple(
            GroupResult(
                member_names=r.member_names,
                member_rankings=tuple(named(k, o) for o in orders[k]),
                borda=named(k, borda_orders[k]),
                tolerant=named(k, tol_orders[k]),
                consensus=named(k, cons_orders[k]) if cons_ok[k] else None,
                disjoint=r.disjoint_nodes,
                disagreement=tuple(r.disagreement().items()),
            )
            for k, r in enumerate(roster.rosters)
        )

    # ------------------------------------------------------------------
    @property
    def n_problems(self) -> int:
        """Stack size ``P`` (the leading axis of every result)."""
        return self.stacked.n_problems

    @property
    def n_alternatives(self) -> int:
        """Alternatives per member of the underlying stack."""
        return self.stacked.n_alternatives

    @property
    def n_attributes(self) -> int:
        """Leaf attributes per member of the underlying stack."""
        return self.stacked.n_attributes


# ----------------------------------------------------------------------
# The per-problem view
# ----------------------------------------------------------------------

class BatchEvaluator:
    """One compiled problem as the ``P = 1`` view of :class:`StackedEvaluator`.

    Answers every per-problem question of the paper's workflow — the
    Fig. 6 ranking, weight-scenario sweeps, dominance/rank-interval
    screening, the §V Monte Carlo and the group members axis — by
    running the stacked kernels on a one-member stack and returning
    slice ``[0]``.  It holds no array program of its own, so a single
    problem and a registry stack share one implementation.
    """

    def __init__(
        self, source: Union[DecisionProblem, CompiledProblem, object]
    ) -> None:
        """Wrap ``source`` (problem, compiled form or AdditiveModel)."""
        self.compiled = _as_compiled(source)

    @cached_property
    def stack(self) -> "StackedEvaluator":
        """The one-member stack every method delegates to (built lazily)."""
        return StackedEvaluator([self.compiled])

    # -- §IV: overall-utility intervals and the Fig. 6 ranking ---------
    def minimum_utilities(self) -> np.ndarray:
        """(n_alternatives,) lower overall utilities (table order)."""
        return self.stack.minimum_utilities()[0]

    def average_utilities(self) -> np.ndarray:
        """(n_alternatives,) average overall utilities (table order)."""
        return self.stack.average_utilities()[0]

    def maximum_utilities(self) -> np.ndarray:
        """(n_alternatives,) upper overall utilities (table order)."""
        return self.stack.maximum_utilities()[0]

    def evaluate(self):
        """The Fig. 6 ranking as a :class:`repro.core.model.Evaluation`.

        Ties break on the alternative name (the Fig. 6 ranking rule).
        """
        return self.stack.evaluate_all()[0]

    # -- weight-scenario sweeps ----------------------------------------
    def utilities_for_weights(self, weights: np.ndarray) -> np.ndarray:
        """Overall utilities under explicit weight scenarios.

        ``weights`` is one vector ``(n_attributes,)`` or a scenario
        matrix ``(n_scenarios, n_attributes)``; any other shape raises
        ``ValueError``.  Component utilities sit at their class
        averages, as in §V.  Returns ``(n_alternatives,)`` or
        ``(n_alternatives, n_scenarios)`` to match the historical
        ``AdditiveModel.utilities_for_weights`` contract.
        """
        w = np.asarray(weights, dtype=float)
        n = self.compiled.n_attributes
        if w.ndim not in (1, 2) or w.shape[-1] != n:
            raise ValueError(
                f"expected weights of shape ({n},) or (n_scenarios, {n}), "
                f"got {w.shape}"
            )
        utilities = self.stack.utilities_for_weights(w.reshape(1, -1, n))[0]
        return utilities[0] if w.ndim == 1 else utilities.T

    # -- §V: Monte Carlo -----------------------------------------------
    def monte_carlo_ranks(
        self,
        method: str = "intervals",
        n_simulations: int = 10_000,
        seed: Optional[int] = None,
        sample_utilities: Union[bool, str] = False,
    ) -> Tuple[np.ndarray, float]:
        """One §V simulation class as raw arrays: (ranks, acceptance)."""
        ranks, acceptance = self.stack.monte_carlo_ranks(
            method, n_simulations, [seed], sample_utilities
        )
        return ranks[0], float(acceptance[0])

    def simulate(self, seed: Optional[int] = None, **kwargs):
        """Full §V Monte Carlo as a
        :class:`repro.core.montecarlo.MonteCarloResult`."""
        return self.stack.simulate_all(seed=[seed], **kwargs)[0]

    # -- §V: screening --------------------------------------------------
    def dominance_matrix(self) -> np.ndarray:
        """(n_alt, n_alt) boolean strict-dominance matrix (§V screen)."""
        with _stage("eval.dominance", n_alternatives=self.n_alternatives):
            return self.stack.dominance_matrices()[0]

    def rank_intervals(self):
        """Best/worst attainable rank per alternative, from dominance."""
        from .rankintervals import rank_intervals as _rank_intervals

        matrix = self.dominance_matrix()
        with _stage("eval.rankintervals", n_alternatives=self.n_alternatives):
            return _rank_intervals(self, matrix=matrix)

    # -- group decision support (the members axis) ----------------------
    def group_evaluation(
        self, roster: CompiledRoster, method: str = "intersection"
    ):
        """The aggregated group ranking as a Fig. 6 ``Evaluation``.

        Evaluates the roster's aggregated (consensus or tolerant)
        weight vectors through a reweighted view of the compiled
        problem — bit-identical to compiling
        ``problem.with_weights(aggregate_weights(members, method))``.
        Raises ``ValueError`` for an intersection over disjoint member
        intervals, exactly like the scalar path.
        """
        view = self.compiled.reweighted(*roster.aggregated_vectors(method))
        return BatchEvaluator(view).evaluate()

    def group_result(self, roster: CompiledRoster) -> GroupResult:
        """The full group outcome for this problem (see
        :meth:`StackedEvaluator.group_results`)."""
        return self.stack.group_results(StackedRoster([roster]))[0]

    @property
    def alternative_names(self) -> Tuple[str, ...]:
        """Alternative names in performance-table order."""
        return self.compiled.alternative_names

    @property
    def n_attributes(self) -> int:
        """Leaf attributes of the underlying compiled problem."""
        return self.compiled.n_attributes

    @property
    def n_alternatives(self) -> int:
        """Alternatives of the underlying compiled problem."""
        return self.compiled.n_alternatives

"""Vectorized batch evaluation engine.

The paper's workflow — additive MAUT evaluation (§IV), the §V
screening and the 10,000-run Monte Carlo sensitivity analysis — is the
hot path of this reproduction.  This module lowers a
:class:`~repro.core.problem.DecisionProblem` into dense NumPy arrays
*once* (:class:`CompiledProblem`) and evaluates everything downstream
as array programs over ``(n_scenarios, n_alternatives, n_attributes)``
tensors (:class:`BatchEvaluator`) — no Python-level loop over
simulations or alternatives.

Layering: this module sits *below* :mod:`repro.core.model`,
:mod:`repro.core.montecarlo` and :mod:`repro.core.dominance`; they keep
their public, paper-exact APIs and delegate the numeric work here.  The
result-object imports in :class:`BatchEvaluator` are deferred so the
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
    arrays, so :class:`BatchEvaluator` never walks the object graph
    again.

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

        self.u_low = np.stack([m.u_low for m in members])
        self.u_avg = np.stack([m.u_avg for m in members])
        self.u_up = np.stack([m.u_up for m in members])
        self.missing = np.stack([m.missing for m in members])
        self.w_low = np.stack([m.w_low for m in members])
        self.w_avg = np.stack([m.w_avg for m in members])
        self.w_up = np.stack([m.w_up for m in members])

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
        self.key_count = np.stack([m.key_count for m in members])
        self.alt_key = np.stack([m.alt_key for m in members])

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

    def patch_member(self, pos: int, compiled: CompiledProblem) -> None:
        """Replace member ``pos``'s slices of every stacked tensor in place.

        The delta-compilation path: when one workspace of a stacked
        registry changes, its freshly (delta-)compiled form is written
        into the existing ``(P, ...)`` tensors instead of re-stacking
        all ``P`` members.  Key tensors re-pad if the new member needs
        more utility-class slots than the current stack-wide maximum;
        padding never influences results (``key_count`` masks it), so a
        patched stack evaluates bit-identically to a freshly stacked
        one.
        """
        if not 0 <= pos < len(self.members):
            raise IndexError(f"no stack member at position {pos}")
        if compiled.shape != self.shape:
            raise ValueError(
                f"cannot patch shape {compiled.shape} into a "
                f"{self.shape} stack"
            )
        members = list(self.members)
        members[pos] = compiled
        self.members = tuple(members)
        self.names = tuple(m.name for m in self.members)
        for field in ("u_low", "u_avg", "u_up", "missing", "w_low",
                      "w_avg", "w_up"):
            getattr(self, field)[pos] = getattr(compiled, field)
        k = compiled.key_low.shape[1]
        max_keys = self.key_low.shape[2]
        if k > max_keys:
            p, (_, n_att) = len(self.members), self.shape
            for field in ("key_low", "key_up"):
                grown = np.zeros((p, n_att, k))
                grown[:, :, :max_keys] = getattr(self, field)
                setattr(self, field, grown)
        self.key_low[pos] = 0.0
        self.key_up[pos] = 0.0
        self.key_low[pos, :, :k] = compiled.key_low
        self.key_up[pos, :, :k] = compiled.key_up
        self.key_count[pos] = compiled.key_count
        self.alt_key[pos] = compiled.alt_key

    def subset(self, positions: Sequence[int]) -> "StackedProblem":
        """A new stack of just ``positions``, keeping source indices.

        The sliced re-evaluation primitive: every member's numbers
        depend only on its own arrays and its own seeded stream (the
        PR 2 determinism contract), so evaluating a subset stack is
        bit-identical to evaluating those members inside the full
        stack.
        """
        return StackedProblem(
            [self.members[p] for p in positions],
            [self.source_indices[p] for p in positions],
        )


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


# ----------------------------------------------------------------------
# Ranking
# ----------------------------------------------------------------------

def rank_matrix(utilities: np.ndarray) -> np.ndarray:
    """Per-scenario 1-based ranks from a (n_scenarios, n_alt) utility array.

    Ties resolve in alternative (column) order, matching the stable
    tie-break the deterministic evaluation uses.
    """
    order = np.argsort(-utilities, axis=1, kind="stable")
    ranks = np.empty_like(order)
    n_scen, n_alt = utilities.shape
    rows = np.arange(n_scen)[:, None]
    ranks[rows, order] = np.arange(1, n_alt + 1)[None, :]
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
# The batch evaluator
# ----------------------------------------------------------------------

class BatchEvaluator:
    """Array-program evaluation over a compiled decision problem.

    One instance answers every question the paper's workflow asks —
    utility intervals, the Fig. 6 ranking, weight-scenario sweeps,
    dominance/rank-interval screening and the §V Monte Carlo — without
    re-walking the problem's object graph and without Python loops over
    scenarios or alternatives.
    """

    def __init__(
        self, source: Union[DecisionProblem, CompiledProblem, object]
    ) -> None:
        """Wrap ``source`` (problem, compiled form or AdditiveModel)."""
        self.compiled = _as_compiled(source)

    # -- §IV: overall-utility intervals and the Fig. 6 ranking ---------
    def minimum_utilities(self) -> np.ndarray:
        """(n_alternatives,) lower overall utilities (table order)."""
        return self.compiled.u_low @ self.compiled.w_low

    def average_utilities(self) -> np.ndarray:
        """(n_alternatives,) average overall utilities (table order)."""
        return self.compiled.u_avg @ self.compiled.w_avg

    def maximum_utilities(self) -> np.ndarray:
        """(n_alternatives,) upper overall utilities (table order)."""
        return self.compiled.u_up @ self.compiled.w_up

    def utility_intervals(self) -> Tuple[Interval, ...]:
        """[min, max] overall utility per alternative (table order)."""
        mins = self.minimum_utilities()
        maxs = self.maximum_utilities()
        return tuple(
            Interval(float(lo), float(up)) for lo, up in zip(mins, maxs)
        )

    def ranking_order(self) -> np.ndarray:
        """Alternative indices by decreasing average utility.

        Ties break on the alternative name, exactly like the scalar
        ``AdditiveModel.evaluate``.
        """
        avgs = self.average_utilities()
        names = np.array(self.compiled.alternative_names)
        return np.lexsort((names, -avgs))

    def evaluate(self):
        """The Fig. 6 ranking as a :class:`repro.core.model.Evaluation`."""
        from .model import Evaluation, RankedAlternative

        mins = self.minimum_utilities()
        avgs = self.average_utilities()
        maxs = self.maximum_utilities()
        rows = tuple(
            RankedAlternative(
                name=self.compiled.alternative_names[i],
                minimum=float(mins[i]),
                average=float(avgs[i]),
                maximum=float(maxs[i]),
                rank=rank,
            )
            for rank, i in enumerate(self.ranking_order(), start=1)
        )
        return Evaluation(self.compiled.name, rows)

    # -- weight-scenario sweeps ----------------------------------------
    def utilities_for_weights(self, weights: np.ndarray) -> np.ndarray:
        """Overall utilities under explicit weight scenarios.

        ``weights`` is one vector ``(n_attributes,)`` or a scenario
        matrix ``(n_scenarios, n_attributes)``; component utilities sit
        at their class averages, as in §V.  Returns ``(n_alternatives,)``
        or ``(n_alternatives, n_scenarios)`` to match the historical
        ``AdditiveModel.utilities_for_weights`` contract.
        """
        w = np.asarray(weights, dtype=float)
        if w.ndim == 1:
            if w.shape[0] != self.compiled.n_attributes:
                raise ValueError(
                    f"expected {self.compiled.n_attributes} weights, "
                    f"got {w.shape[0]}"
                )
            return self.compiled.u_avg @ w
        if w.shape[1] != self.compiled.n_attributes:
            raise ValueError(
                f"expected weight rows of length {self.compiled.n_attributes}, "
                f"got {w.shape[1]}"
            )
        return self.compiled.u_avg @ w.T

    def scenario_ranks(self, weights: np.ndarray) -> np.ndarray:
        """1-based ranks per weight scenario, ``(n_scenarios, n_alt)``."""
        w = np.asarray(weights, dtype=float)
        if w.ndim == 1:
            w = w[None, :]
        return rank_matrix(self.utilities_for_weights(w).T)

    # -- §V: Monte Carlo -----------------------------------------------
    def sample_weights(
        self,
        method: str,
        n_simulations: int,
        rng: np.random.Generator,
        order_groups: Optional[Sequence[Sequence[int]]] = None,
        reject_outside: bool = False,
    ) -> Tuple[np.ndarray, float]:
        """(weights, acceptance_rate) for one §V simulation class."""
        n = self.compiled.n_attributes
        if method == "random":
            return sample_simplex(n, n_simulations, rng), 1.0
        if method == "rank_order":
            if order_groups is None:
                order = np.argsort(-self.compiled.w_avg, kind="stable")
                order_groups = [[int(i)] for i in order]
            return sample_rank_order(order_groups, n, n_simulations, rng), 1.0
        if method == "intervals":
            return sample_in_intervals(
                self.compiled.w_low,
                self.compiled.w_up,
                n_simulations,
                rng,
                reject_outside,
            )
        raise ValueError(
            f"unknown method {method!r}; expected 'random', 'rank_order' "
            "or 'intervals'"
        )

    def _sampled_utility_tensor(
        self, n_simulations: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Full utility sampling as one (S, n_alt, n_att) gather.

        Per attribute, one draw per utility class shared by every
        alternative on the same level — the coupling that makes a draw
        a utility *function* — then made monotone along the preference
        order with a cumulative max.  All attributes and simulations
        are drawn in a single uniform call over the padded key tensor.
        """
        c = self.compiled
        draws = rng.uniform(
            c.key_low[None, :, :],
            c.key_up[None, :, :],
            size=(n_simulations, c.n_attributes, c.key_low.shape[1]),
        )
        draws = np.maximum.accumulate(draws, axis=2)
        attr_index = np.arange(c.n_attributes)[None, :]
        # u[s, i, j] = draws[s, j, alt_key[j, i]]
        return draws[:, attr_index, c.alt_key.T]

    def monte_carlo_utilities(
        self,
        weights: np.ndarray,
        rng: np.random.Generator,
        sample_utilities: Union[bool, str] = False,
    ) -> np.ndarray:
        """(n_simulations, n_alternatives) overall utilities.

        The ``"missing"`` path reproduces the historical scalar
        implementation bit-for-bit: the same single uniform draw over
        the missing cells, and per-cell corrections accumulated in the
        same (row-major cell) order via an unbuffered scatter-add.
        """
        c = self.compiled
        n_simulations = weights.shape[0]
        if sample_utilities in (True, "all"):
            u = self._sampled_utility_tensor(n_simulations, rng)
            return np.einsum("saj,sj->sa", u, weights)
        if sample_utilities == "missing":
            utilities = weights @ c.u_avg.T
            if c.missing.any():
                cells = np.argwhere(c.missing)
                rows, cols = cells[:, 0], cells[:, 1]
                draws = rng.uniform(0.0, 1.0, size=(n_simulations, len(cells)))
                delta = draws - c.u_avg[rows, cols][None, :]
                np.add.at(
                    utilities, (slice(None), rows), weights[:, cols] * delta
                )
            return utilities
        if sample_utilities is not False:
            raise ValueError(
                f"sample_utilities must be False, True, 'all' or 'missing', "
                f"got {sample_utilities!r}"
            )
        return weights @ c.u_avg.T

    def monte_carlo_ranks(
        self,
        method: str = "intervals",
        n_simulations: int = 10_000,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        order_groups: Optional[Sequence[Sequence[int]]] = None,
        sample_utilities: Union[bool, str] = False,
        reject_outside: bool = False,
    ) -> Tuple[np.ndarray, float]:
        """One §V simulation class as raw arrays: (ranks, acceptance)."""
        if n_simulations < 1:
            raise ValueError("n_simulations must be positive")
        if rng is None:
            rng = np.random.default_rng(seed)
        weights, acceptance = self.sample_weights(
            method, n_simulations, rng, order_groups, reject_outside
        )
        utilities = self.monte_carlo_utilities(weights, rng, sample_utilities)
        return rank_matrix(utilities), acceptance

    def simulate(self, **kwargs):
        """Full §V Monte Carlo as a
        :class:`repro.core.montecarlo.MonteCarloResult`."""
        from .montecarlo import MonteCarloResult

        method = kwargs.get("method", "intervals")
        ranks, acceptance = self.monte_carlo_ranks(**kwargs)
        return MonteCarloResult(
            self.compiled.alternative_names, ranks, method, acceptance
        )

    # -- §V: screening --------------------------------------------------
    def dominance_matrix(self) -> np.ndarray:
        """(n_alt, n_alt) boolean strict-dominance matrix (§V screen)."""
        from .dominance import dominance_matrix as _dominance_matrix

        with _stage(
            "eval.dominance", n_alternatives=self.compiled.n_alternatives
        ):
            return _dominance_matrix(self.compiled)

    def rank_intervals(self):
        """Best/worst attainable rank per alternative, from dominance."""
        from .rankintervals import rank_intervals as _rank_intervals

        matrix = self.dominance_matrix()
        with _stage(
            "eval.rankintervals",
            n_alternatives=self.compiled.n_alternatives,
        ):
            return _rank_intervals(self, matrix=matrix)

    # -- group decision support (the members axis) ----------------------
    def _check_roster(self, roster: CompiledRoster) -> None:
        if roster.n_attributes != self.compiled.n_attributes:
            raise ValueError(
                f"roster covers {roster.n_attributes} attributes but the "
                f"problem has {self.compiled.n_attributes}"
            )

    def member_average_utilities(self, roster: CompiledRoster) -> np.ndarray:
        """(n_members, n_alternatives) average overall utilities.

        One batched matrix-vector product over the members axis; member
        ``m``'s slice is bit-identical to evaluating
        ``problem.with_weights(members[m].weights)`` through the scalar
        path (same per-slice operand shapes, same kernel).
        """
        self._check_roster(roster)
        c = self.compiled
        return np.matmul(
            c.u_avg[None, :, :], roster.w_avg[:, :, None]
        )[..., 0]

    def member_ranking_orders(self, roster: CompiledRoster) -> np.ndarray:
        """(n_members, n_alt) alternative indices by decreasing utility.

        Per member, ties break on the alternative name — the same
        stable tie-break as :meth:`ranking_order` — via one lexsort
        over the whole members axis.
        """
        avgs = self.member_average_utilities(roster)
        names = np.broadcast_to(
            np.array(self.compiled.alternative_names), avgs.shape
        )
        return np.lexsort((names, -avgs), axis=-1)

    def member_rankings(
        self, roster: CompiledRoster
    ) -> Tuple[Tuple[str, ...], ...]:
        """Per-member name rankings, roster order."""
        names = self.compiled.alternative_names
        return tuple(
            tuple(names[i] for i in order)
            for order in self.member_ranking_orders(roster)
        )

    def borda_order(self, roster: CompiledRoster) -> Tuple[str, ...]:
        """Borda aggregation of the member rankings (ties by name).

        Integer Borda points computed from the member rank tensor in
        one reduction — identical to the scalar
        :func:`repro.core.group.borda_ranking` over the per-member
        rankings.
        """
        orders = self.member_ranking_orders(roster)
        m, n = orders.shape
        ranks = np.empty_like(orders)
        rows = np.arange(m)[:, None]
        ranks[rows, orders] = np.arange(1, n + 1)[None, :]
        points = m * n - ranks.sum(axis=0)
        names = np.array(self.compiled.alternative_names)
        return tuple(names[i] for i in np.lexsort((names, -points)))

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
        self._check_roster(roster)
        w_low, w_avg, w_up = roster.aggregated_vectors(method)
        return BatchEvaluator(
            self.compiled.reweighted(w_low, w_avg, w_up)
        ).evaluate()

    def group_result(self, roster: CompiledRoster) -> GroupResult:
        """The full group outcome for this problem in one array program.

        Per-member rankings, Borda aggregation, the tolerant (hull)
        ranking, the consensus (intersection) ranking — ``None`` with
        the offending objectives listed in ``disjoint`` when member
        intervals are irreconcilable — and the per-objective
        disagreement profile.
        """
        disjoint = roster.disjoint_nodes
        consensus: Optional[Tuple[str, ...]] = None
        if not disjoint:
            try:
                consensus = self.group_evaluation(
                    roster, "intersection"
                ).names_by_rank
            except ValueError:
                # degenerate intersection (e.g. all-zero sibling
                # weights): no consensus system exists
                consensus = None
        return GroupResult(
            member_names=roster.member_names,
            member_rankings=self.member_rankings(roster),
            borda=self.borda_order(roster),
            tolerant=self.group_evaluation(roster, "hull").names_by_rank,
            consensus=consensus,
            disjoint=disjoint,
            disagreement=tuple(roster.disagreement().items()),
        )

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


# ----------------------------------------------------------------------
# The stacked evaluator — many problems per array program
# ----------------------------------------------------------------------

class StackedEvaluator:
    """Array-program evaluation over a whole stack of problems.

    Mirrors :class:`BatchEvaluator` with one extra leading
    ``n_problems`` axis on every tensor: rankings, utility intervals,
    dominance matrices and Monte Carlo sweeps evaluate the entire stack
    at once.  All linear algebra runs through batched ``np.matmul`` (or
    batched ``einsum`` exactly where the per-problem path uses einsum)
    with per-slice operand shapes identical to the per-problem path, so
    member ``p``'s outputs are bit-identical to
    ``BatchEvaluator(stack.members[p])``.

    Monte Carlo keeps one seeded RNG stream *per member* — the draws
    loop over members (that is the contract that makes stacked output
    equal per-problem output exactly) while utilities, corrections and
    ranks evaluate stacked.
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

        Per problem, ties break on the alternative name — the same
        stable tie-break as :meth:`BatchEvaluator.ranking_order` — via
        one lexsort over the whole stack.
        """
        avgs = self.average_utilities()
        names = np.array(
            [m.alternative_names for m in self.stacked.members]
        )
        return np.lexsort((names, -avgs), axis=-1)

    def evaluate_all(self) -> Tuple[object, ...]:
        """One Fig. 6 :class:`~repro.core.model.Evaluation` per member."""
        from .model import Evaluation, RankedAlternative

        mins = self.minimum_utilities()
        avgs = self.average_utilities()
        maxs = self.maximum_utilities()
        orders = self.ranking_orders()
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
        utilities = self.utilities_for_weights(weights)
        p, n_scen, n_alt = utilities.shape
        return rank_matrix(utilities.reshape(p * n_scen, n_alt)).reshape(
            p, n_scen, n_alt
        )

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
        order_groups: Optional[Sequence[Sequence[int]]] = None,
        sample_utilities: Union[bool, str] = False,
        reject_outside: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One §V simulation class for every member at once.

        Returns ``(ranks, acceptance_rates)`` with ``ranks`` of shape
        ``(n_problems, n_simulations, n_alternatives)``.  ``seed`` is a
        single seed applied to every member's own fresh RNG stream, or
        a per-member sequence; member ``p``'s rank slice equals
        ``BatchEvaluator(members[p]).monte_carlo_ranks(seed=seed_p)``
        exactly.
        """
        if n_simulations < 1:
            raise ValueError("n_simulations must be positive")
        s = self.stacked
        rngs = self._member_rngs(seed)

        # Per-member draws (the RNG streams), stacked evaluation below.
        weights = np.empty((s.n_problems, n_simulations, s.n_attributes))
        acceptance = np.ones(s.n_problems)
        for p, member in enumerate(s.members):
            w_p, acc = BatchEvaluator(member).sample_weights(
                method, n_simulations, rngs[p], order_groups, reject_outside
            )
            weights[p] = w_p
            acceptance[p] = acc

        utilities = self._monte_carlo_utilities(
            weights, rngs, sample_utilities
        )
        n_alt = s.n_alternatives
        ranks = rank_matrix(
            utilities.reshape(s.n_problems * n_simulations, n_alt)
        ).reshape(s.n_problems, n_simulations, n_alt)
        return ranks, acceptance

    def _monte_carlo_utilities(
        self,
        weights: np.ndarray,
        rngs: Sequence[np.random.Generator],
        sample_utilities: Union[bool, str],
    ) -> np.ndarray:
        """(P, S, n_alt) overall utilities for stacked weight scenarios."""
        s = self.stacked
        n_sims = weights.shape[1]
        if sample_utilities in (True, "all"):
            u = self._sampled_utility_tensor(n_sims, rngs)
            return np.einsum("psaj,psj->psa", u, weights)
        if sample_utilities == "missing":
            utilities = np.matmul(weights, s.u_avg.transpose(0, 2, 1))
            self._apply_missing_corrections(utilities, weights, rngs)
            return utilities
        if sample_utilities is not False:
            raise ValueError(
                f"sample_utilities must be False, True, 'all' or 'missing', "
                f"got {sample_utilities!r}"
            )
        return np.matmul(weights, s.u_avg.transpose(0, 2, 1))

    def _apply_missing_corrections(
        self,
        utilities: np.ndarray,
        weights: np.ndarray,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """The ref.-[18] missing-cell draws as one padded scatter-add.

        Each member's uniform draws come from its own RNG stream (bit
        compatibility with the per-problem path); the correction itself
        is a single unbuffered ``np.add.at`` over the whole stack,
        iterating cells in the same per-problem row-major order so
        repeated target rows accumulate identically.
        """
        s = self.stacked
        n_sims = weights.shape[1]
        cell_lists = [np.argwhere(m.missing) for m in s.members]
        max_cells = max((len(c) for c in cell_lists), default=0)
        if max_cells == 0:
            # Still no RNG to consume: the per-problem path draws only
            # when the member has missing cells.
            return
        p = s.n_problems
        rows = np.zeros((p, max_cells), dtype=np.intp)
        cols = np.zeros((p, max_cells), dtype=np.intp)
        delta = np.zeros((p, n_sims, max_cells))
        for k, cells in enumerate(cell_lists):
            if not len(cells):
                continue
            r, c = cells[:, 0], cells[:, 1]
            draws = rngs[k].uniform(0.0, 1.0, size=(n_sims, len(cells)))
            rows[k, : len(cells)] = r
            cols[k, : len(cells)] = c
            delta[k, :, : len(cells)] = draws - s.u_avg[k, r, c][None, :]
        vals = (
            np.take_along_axis(
                weights, np.broadcast_to(cols[:, None, :], delta.shape), axis=2
            )
            * delta
        )
        p_idx = np.broadcast_to(
            np.arange(p)[:, None, None], delta.shape
        )
        s_idx = np.broadcast_to(
            np.arange(n_sims)[None, :, None], delta.shape
        )
        r_idx = np.broadcast_to(rows[:, None, :], delta.shape)
        np.add.at(utilities, (p_idx, s_idx, r_idx), vals)

    def _sampled_utility_tensor(
        self, n_simulations: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Full utility sampling for the stack: (P, S, n_alt, n_att).

        Draws per member over the member's *own* padded key tensor (so
        the RNG stream matches the per-problem path draw for draw),
        then monotonises and gathers the whole stack at once.
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

    def _stack_names(self) -> np.ndarray:
        return np.array([m.alternative_names for m in self.stacked.members])

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

    def group_member_orders(self, roster: StackedRoster) -> np.ndarray:
        """(P, M, n_alt) ranking orders, name tie-break, one lexsort."""
        avgs = self.group_member_utilities(roster)
        names = np.broadcast_to(self._stack_names()[:, None, :], avgs.shape)
        return np.lexsort((names, -avgs), axis=-1)

    def group_results(self, roster: StackedRoster) -> Tuple[GroupResult, ...]:
        """One :class:`GroupResult` per stack member, evaluated stacked.

        Member utilities, ranking orders and Borda points run over the
        full ``(P, M, n_alt)`` tensors; the aggregated (consensus /
        tolerant) weight vectors are gathered per roster and evaluated
        as stacked matrix-vector products.  Member ``p``'s result is
        identical to ``BatchEvaluator(members[p]).group_result(...)``.
        """
        self._check_stacked_roster(roster)
        s = self.stacked
        p, m, n = s.n_problems, roster.n_members, s.n_alternatives
        orders = self.group_member_orders(roster)
        names_arr = self._stack_names()

        # Borda: scatter orders back to 1-based ranks, reduce members.
        ranks = np.empty_like(orders)
        p_idx = np.arange(p)[:, None, None]
        m_idx = np.arange(m)[None, :, None]
        ranks[p_idx, m_idx, orders] = np.arange(1, n + 1)[None, None, :]
        points = m * n - ranks.sum(axis=1)
        borda_orders = np.lexsort((names_arr, -points), axis=-1)

        # Aggregated weight vectors per problem (tiny, object-graph
        # level); the evaluation itself stays stacked.
        tol_w = np.stack(
            [r.aggregated_vectors("hull")[1] for r in roster.rosters]
        )
        cons_w = np.zeros((p, s.n_attributes))
        cons_ok = np.zeros(p, dtype=bool)
        for k, r in enumerate(roster.rosters):
            if r.disjoint_nodes:
                continue
            try:
                cons_w[k] = r.aggregated_vectors("intersection")[1]
            except ValueError:
                continue
            cons_ok[k] = True
        tol_avgs = np.matmul(s.u_avg, tol_w[:, :, None])[..., 0]
        cons_avgs = np.matmul(s.u_avg, cons_w[:, :, None])[..., 0]
        tol_orders = np.lexsort((names_arr, -tol_avgs), axis=-1)
        cons_orders = np.lexsort((names_arr, -cons_avgs), axis=-1)

        results = []
        for k, r in enumerate(roster.rosters):
            names = self.stacked.members[k].alternative_names
            consensus = (
                tuple(names[i] for i in cons_orders[k])
                if cons_ok[k]
                else None
            )
            results.append(
                GroupResult(
                    member_names=r.member_names,
                    member_rankings=tuple(
                        tuple(names[i] for i in order)
                        for order in orders[k]
                    ),
                    borda=tuple(names[i] for i in borda_orders[k]),
                    tolerant=tuple(names[i] for i in tol_orders[k]),
                    consensus=consensus,
                    disjoint=r.disjoint_nodes,
                    disagreement=tuple(r.disagreement().items()),
                )
            )
        return tuple(results)

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

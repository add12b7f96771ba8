"""Group decision support over imprecise inputs.

The paper argues that admitting imprecision "makes the system suitable
for group decision support", citing its ref. [17] (Jiménez, Mateos &
Ríos-Insua 2005): "individual conflicting views in a group of DMs can
be captured through imprecise answers".  The mechanics: every member
answers the elicitation questions with intervals; the group inputs are
interval *combinations* of the members' — the intersection when the
views are compatible (consensus), the hull when they must all be
covered (tolerant aggregation).

This module is the object-level API.  The numeric work — per-member
rankings, the aggregated group rankings, Borda points and the
disagreement profile — runs through the vectorized members axis of
:mod:`repro.core.engine` (:func:`~repro.core.engine.compile_roster`
plus ``BatchEvaluator.group_result``/``group_evaluation``, the
one-problem view of ``StackedEvaluator``), one array program instead
of a Python loop over decision makers, with bit-identical outputs.

It also defines the portable *roster spec*: a hashable, JSON-stable
description of a member roster (``repro-members/1`` documents) that the
batch runtime, the registry index and the query service share, plus
:func:`members_digest`, the content key that folds the roster into
:func:`~repro.core.index.eval_config_hash`.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .engine import (
    BatchEvaluator,
    GroupResult,
    compile_problem,
    compile_roster,
)
from .hierarchy import Hierarchy
from .interval import Interval
from .problem import DecisionProblem
from .weights import WeightSystem

__all__ = [
    "MEMBERS_FORMAT",
    "GroupMember",
    "GroupResult",
    "aggregate_weights",
    "disagreement",
    "borda_ranking",
    "GroupDecision",
    "MemberSpec",
    "parse_members_document",
    "load_members",
    "members_from_spec",
    "compiled_roster_for",
    "members_digest",
]

#: The on-disk members-document format tag (``repro group --members``).
MEMBERS_FORMAT = "repro-members/1"

#: One roster entry of a members spec: ``(name, ((objective, lower,
#: upper), ...))`` with the objective triples sorted by name — fully
#: hashable, so a spec can ride inside a frozen
#: :class:`~repro.core.runtime.BatchOptions`.
MemberSpec = Tuple[str, Tuple[Tuple[str, float, float], ...]]


@dataclass(frozen=True)
class GroupMember:
    """One decision maker's name and elicited weight system."""

    name: str
    weights: WeightSystem


def aggregate_weights(
    members: Sequence[GroupMember], method: str = "intersection"
) -> WeightSystem:
    """Combine member weight systems into one group system.

    ``method="intersection"`` keeps only weights every member accepts;
    when some node's intervals are disjoint the members genuinely
    disagree and a ``ValueError`` names the node.  ``method="hull"``
    covers every member's interval (always feasible).  Thin delegate:
    the per-node combination runs over the roster tensors of
    :class:`~repro.core.engine.CompiledRoster`.
    """
    if method not in ("intersection", "hull"):
        raise ValueError(f"method must be 'intersection' or 'hull', got {method!r}")
    return compile_roster(members).aggregated(method)


def disagreement(members: Sequence[GroupMember]) -> Dict[str, float]:
    """Per-objective disagreement in ``[0, 1]``.

    For each non-root node, disagreement is ``1 - |intersection| /
    |hull|`` over the members' local intervals (widths measured on the
    interval line; a disjoint pair scores 1).  0 means every member
    gave the same interval.  Thin delegate over the roster tensors.
    """
    return compile_roster(members).disagreement()


def borda_ranking(rankings: Sequence[Sequence[str]]) -> Tuple[str, ...]:
    """Aggregate member rankings by Borda count (ties by name).

    Every ranking must order the same alternatives.  An alternative at
    rank ``r`` among ``n`` scores ``n - r`` points; the aggregate sorts
    by total points descending.
    """
    if not rankings:
        raise ValueError("need at least one ranking")
    universe = set(rankings[0])
    for ranking in rankings[1:]:
        if set(ranking) != universe:
            raise ValueError("rankings order different alternative sets")
    n = len(universe)
    points: Dict[str, int] = {name: 0 for name in universe}
    for ranking in rankings:
        for position, name in enumerate(ranking, start=1):
            points[name] += n - position
    return tuple(sorted(points, key=lambda name: (-points[name], name)))


class GroupDecision:
    """A shared decision problem evaluated by several decision makers.

    Every member shares the problem *structure* (hierarchy, performance
    table, component utilities) but holds their own weight system —
    which is how the GMAA group workflow operates (ref. [17]).  All
    numeric questions delegate to one compiled problem plus one
    compiled roster, so a 20-member group costs one batched array
    program, not 20 scalar evaluations.
    """

    def __init__(
        self, problem: DecisionProblem, members: Sequence[GroupMember]
    ) -> None:
        """Validate the roster against ``problem`` and compile both."""
        if not members:
            raise ValueError("a group needs at least one member")
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise ValueError("duplicate member names")
        hierarchy_names = {n.name for n in problem.hierarchy.nodes()}
        for member in members:
            member_names = {n.name for n in member.weights.hierarchy.nodes()}
            if member_names != hierarchy_names:
                raise ValueError(
                    f"member {member.name!r} weights do not match the "
                    "problem hierarchy"
                )
        self.problem = problem
        self.members: Tuple[GroupMember, ...] = tuple(members)
        self._roster = compile_roster(self.members, problem.hierarchy)
        self._evaluator = BatchEvaluator(compile_problem(problem))

    # ------------------------------------------------------------------
    def member_ranking(self, name: str) -> Tuple[str, ...]:
        """One member's ranking (KeyError for an unknown member)."""
        try:
            position = self._roster.member_names.index(name)
        except ValueError:
            raise KeyError(f"no group member named {name!r}") from None
        return self.result().member_rankings[position]

    def member_rankings(self) -> Dict[str, Tuple[str, ...]]:
        """Every member's ranking, roster order, from one array program."""
        return dict(zip(self._roster.member_names, self.result().member_rankings))

    def group_problem(self, method: str = "intersection") -> DecisionProblem:
        """The problem under the aggregated (group) weight system."""
        return self.problem.with_weights(self._roster.aggregated(method))

    def group_ranking(self, method: str = "intersection") -> Tuple[str, ...]:
        """The aggregated group ranking (consensus or tolerant)."""
        return self._evaluator.group_evaluation(
            self._roster, method
        ).names_by_rank

    def borda(self) -> Tuple[str, ...]:
        """Borda aggregation of the member rankings."""
        return self.result().borda

    def disagreement(self) -> Dict[str, float]:
        """The per-objective disagreement profile."""
        return self._roster.disagreement()

    def result(self) -> GroupResult:
        """Everything at once as a :class:`~repro.core.engine.GroupResult`.

        Unlike :meth:`group_ranking`, irreconcilable member intervals
        do not raise here: ``consensus`` is ``None``, the offending
        objectives are listed in ``disjoint``, and :attr:`GroupResult.best`
        falls back to the tolerant (hull) ranking.
        """
        return self._evaluator.group_result(self._roster)


# ----------------------------------------------------------------------
# Roster specs — the portable members-document layer
# ----------------------------------------------------------------------

def parse_members_document(doc: object) -> Tuple[MemberSpec, ...]:
    """Validate a ``repro-members/1`` document into a roster spec.

    The document shape::

        {"format": "repro-members/1",
         "members": [{"name": "alice",
                      "local": {"cost": [0.3, 0.5], ...}}, ...]}

    ``local`` maps every non-root objective of the target hierarchy to
    its elicited ``[lower, upper]`` weight interval.  Member order is
    preserved (it is the members axis order); objective entries are
    sorted by name so equal rosters always produce equal specs — and
    therefore equal :func:`members_digest` cache keys.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("members document must be a JSON object")
    fmt = doc.get("format")
    if fmt != MEMBERS_FORMAT:
        raise ValueError(
            f"unsupported members document format {fmt!r}; "
            f"expected {MEMBERS_FORMAT!r}"
        )
    raw_members = doc.get("members")
    if not isinstance(raw_members, Sequence) or isinstance(raw_members, str):
        raise ValueError("members document needs a 'members' list")
    if not raw_members:
        raise ValueError("a group needs at least one member")
    spec: List[MemberSpec] = []
    seen = set()
    for entry in raw_members:
        if not isinstance(entry, Mapping):
            raise ValueError("each member must be a JSON object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("each member needs a non-empty 'name'")
        if name in seen:
            raise ValueError(f"duplicate member name {name!r}")
        seen.add(name)
        unknown = sorted(set(entry) - {"name", "local"})
        if unknown:
            raise ValueError(
                f"member {name!r}: unknown field(s) {', '.join(unknown)}"
            )
        local = entry.get("local")
        if not isinstance(local, Mapping) or not local:
            raise ValueError(
                f"member {name!r} needs a non-empty 'local' interval map"
            )
        intervals: List[Tuple[str, float, float]] = []
        for objective in sorted(local):
            bounds = local[objective]
            if (
                not isinstance(bounds, Sequence)
                or isinstance(bounds, str)
                or len(bounds) != 2
                or not all(isinstance(b, (int, float)) for b in bounds)
            ):
                raise ValueError(
                    f"member {name!r}, objective {objective!r}: interval "
                    "must be a [lower, upper] number pair"
                )
            lower, upper = float(bounds[0]), float(bounds[1])
            if lower > upper:
                raise ValueError(
                    f"member {name!r}, objective {objective!r}: lower "
                    f"bound {lower} exceeds upper bound {upper}"
                )
            intervals.append((str(objective), lower, upper))
        spec.append((name, tuple(intervals)))
    return tuple(spec)


def load_members(path: Union[str, Path]) -> Tuple[MemberSpec, ...]:
    """Read and validate a members JSON file into a roster spec."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"members file {path}: not valid JSON: {exc}") from exc
    return parse_members_document(doc)


def members_from_spec(
    spec: Sequence[MemberSpec], hierarchy: Hierarchy
) -> List[GroupMember]:
    """Resolve a roster spec against one problem's hierarchy.

    The document's intervals are *raw* trade-off answers on an
    arbitrary ratio scale; each sibling group is normalised by the sum
    of its midpoints (:meth:`WeightSystem.from_raw_intervals`), exactly
    like interactive elicitation — so ``{"cost": [2.4, 3.6]}`` means
    "cost is about three times as important as a baseline sibling",
    and intervals already normalised per sibling group pass through
    unchanged.  Each member's map must cover exactly the hierarchy's
    non-root objectives (``WeightSystem`` raises a ``ValueError``
    naming anything missing or unknown) — which is how a registry run
    reports-and-skips workspaces whose hierarchy a roster does not fit.
    """
    expected = {
        node.name
        for node in hierarchy.nodes()
        if node.name != hierarchy.root.name
    }
    members = []
    for name, intervals in spec:
        given = {objective for objective, _, _ in intervals}
        if given != expected:
            missing = sorted(expected - given)
            unknown = sorted(given - expected)
            raise ValueError(
                f"member {name!r} does not fit the hierarchy: "
                f"missing objectives {missing}, unknown objectives {unknown}"
            )
        local = {
            objective: Interval(lower, upper)
            for objective, lower, upper in intervals
        }
        members.append(
            GroupMember(
                name, WeightSystem.from_raw_intervals(hierarchy, local)
            )
        )
    return members


def _hierarchy_signature(node) -> Tuple:
    """A structural key for an objective (sub)tree.

    Two hierarchies with equal signatures produce bit-identical roster
    tensors for the same spec — the weight derivation only reads node
    names, attributes and the tree shape.
    """
    return (
        node.name,
        node.attribute,
        tuple(_hierarchy_signature(child) for child in node.children),
    )


#: Resolved-roster LRU: ``(spec, hierarchy signature) -> CompiledRoster``.
#: Registry runs resolve one spec against thousands of structurally
#: identical hierarchies; caching turns that into one resolution per
#: distinct hierarchy shape.
_ROSTER_CACHE: "OrderedDict[Tuple, object]" = OrderedDict()
_ROSTER_CACHE_SIZE = 64


def compiled_roster_for(
    spec: Sequence[MemberSpec], hierarchy: Hierarchy
):
    """The compiled roster for ``spec`` over ``hierarchy``, LRU-cached.

    Cache key: the (hashable) spec × the hierarchy's structural
    signature, so every workspace sharing one objective tree reuses a
    single :class:`~repro.core.engine.CompiledRoster` — including its
    aggregated consensus/tolerant weight systems — with bit-identical
    outputs, since roster tensors depend only on the tree structure.
    """
    key = (tuple(spec), _hierarchy_signature(hierarchy.root))
    cached = _ROSTER_CACHE.get(key)
    if cached is not None:
        _ROSTER_CACHE.move_to_end(key)
        return cached
    roster = compile_roster(members_from_spec(spec, hierarchy), hierarchy)
    _ROSTER_CACHE[key] = roster
    while len(_ROSTER_CACHE) > _ROSTER_CACHE_SIZE:
        _ROSTER_CACHE.popitem(last=False)
    return roster


def members_digest(spec: Sequence[MemberSpec]) -> str:
    """The roster's content key: hex sha256 of the canonical spec JSON.

    Folded into :func:`~repro.core.index.eval_config_hash`, so cached
    group results are keyed by workspace content *and* the exact member
    roster — editing any member's interval invalidates precisely the
    group rows, nothing else.
    """
    canonical = json.dumps(
        [[name, [list(iv) for iv in intervals]] for name, intervals in spec],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

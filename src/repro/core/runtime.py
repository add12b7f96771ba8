"""Sharded multi-problem batch runtime.

The PR 1 engine made one decision problem fast; a repository-scale
registry (thousands of candidate shortlists, one workspace each — the
OntoMaven / reuse-landscape setting) needs the *outer* loop fast too.
This module runs a registry of workspace files through three layers:

1. **compiled artifacts** — every workspace loads through the ``.npz``
   compile cache (:func:`repro.core.workspace.load_compiled_fast`), so
   warm runs mmap dense arrays instead of re-parsing JSON;
2. **stacking** — same-shape compiled problems are grouped into
   :class:`~repro.core.engine.StackedProblem` tensor sets and evaluated
   by :class:`~repro.core.engine.StackedEvaluator` array programs, no
   Python loop over problems;
3. **sharding** — the registry is partitioned into chunks executed
   across a ``ProcessPoolExecutor``; chunks are deliberately smaller
   than ``n / workers`` (work stealing) so a shard of skewed, slow
   workspaces cannot serialise the run.

Results merge deterministically: every record carries its registry
index, the merge sorts by it, and each problem's numbers depend only on
its own compiled arrays and its own seeded RNG stream — so the merged
report is byte-identical for any worker count, chunk size or completion
order.  Unreadable registry entries are reported and skipped, never
fatal.

Every ``repro batch`` run is a :meth:`ShardedRunner.run` (``--workers``
defaults to 1, in-process); problems that have no workspace file (the
built-in case study) take the same evaluation loop through
:func:`evaluate_problems`.

A fourth layer sits above the three: passing a
:class:`~repro.core.index.RegistryIndex` to :meth:`ShardedRunner.run`
adds **cross-run result caching** — workspaces whose content hash and
evaluation configuration already have rows in the index skip
compilation *and* evaluation entirely, and the merged report (still
byte-identical) marks how many entries were served from cache
(:attr:`RegistryReport.n_cached`).  Only the main process touches the
index.  Before the fan-out it classifies every entry: stored and
artifact-backed identities are probed there, but a new workspace with
no fresh artifact goes straight to the pool, whose single ingest pass
(parse, hash, lower, artifact write) ships the identity home with the
chunk's results.  An edited workspace the probe had to ingest is
evaluated in process from that ingest, in every configuration:
delta-patched against its stale artifact when its structure held,
lowered in full (writing its artifact) otherwise.  So the chunks
receive only entries the main process did not parse — deferred new
files, rows with a fresh artifact, and fresh rows whose results miss —
and no file is parsed twice in one run.  After the fan-in the main
process completes the deferred fingerprints, serves known content from
cache, and persists everything in one single-writer transaction.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import metrics as _metrics
from ..obs import span as _span
from ..obs import stage as _stage
from ..obs import trace as _trace
from . import faults as _faults
from .engine import (
    StackedEvaluator,
    StackedRoster,
    compile_problem,
    stack_problems,
)
from .faults import FaultPlan

__all__ = [
    "BatchOptions",
    "RetryPolicy",
    "WorkspaceResult",
    "SkippedWorkspace",
    "RegistryReport",
    "WatchCycle",
    "ShardedRunner",
    "shard_registry",
    "ChunkOutcome",
    "evaluate_registry_chunk",
    "evaluate_problems",
    "expand_registry_source",
]


# ----------------------------------------------------------------------
# Options and result records (all picklable, all deterministic)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BatchOptions:
    """What one batch run computes per workspace.

    ``objectives`` additionally ranks every top-level objective
    restriction (the Fig. 7 view); it needs the workspace object graph,
    so those runs parse JSON instead of using the ``.npz`` fast path.
    ``simulations > 0`` adds a per-problem §V Monte Carlo
    (``sample_utilities="missing"``, one fresh seeded stream per
    problem — identical to evaluating each problem alone).

    ``group`` attaches a member roster: a tuple of
    :data:`~repro.core.group.MemberSpec` entries (see
    :func:`~repro.core.group.load_members`) resolved against every
    workspace's own hierarchy, adding a
    :class:`~repro.core.engine.GroupResult` per workspace evaluated
    through the stacked members axis.  Group runs need the object
    graph (like ``objectives``, which they conflict with) and fold the
    roster digest into the evaluation configuration hash.
    """

    objectives: bool = False
    simulations: int = 0
    method: str = "intervals"
    seed: Optional[int] = None
    use_disk_cache: bool = True
    group: Optional[Tuple[Tuple[str, Tuple[Tuple[str, float, float], ...]], ...]] = None
    #: A :class:`~repro.core.faults.FaultPlan` to run under (chaos
    #: testing only).  Travels to the workers with the options, is
    #: excluded from the evaluation-configuration hash — injected
    #: faults never change what the numbers *are*, only which recovery
    #: path computes them — and costs nothing when ``None``.
    faults: Optional[FaultPlan] = None
    #: Collect spans inside chunk evaluation even when no tracer is
    #: installed in the evaluating process — how ``ShardedRunner``
    #: ships worker-side spans home.  Like ``faults``, excluded from
    #: the evaluation-configuration hash: tracing observes the run, it
    #: never changes the numbers.
    trace: bool = False


@dataclass(frozen=True)
class RetryPolicy:
    """How :class:`ShardedRunner` survives dead and hung workers.

    Attributes
    ----------
    chunk_timeout : float or None
        The *no-progress* window, in seconds: if no chunk at all
        completes for this long, the remaining in-flight chunks are
        declared hung, the pool is abandoned without waiting, and the
        chunks re-dispatch to a fresh pool.  ``None`` disables the
        timeout.
    quarantine_after : int
        A workspace whose chunk dispatch fails this many times is
        quarantined: reported in
        :attr:`RegistryReport.n_quarantined` (and ``skipped``),
        recorded in the index when one is attached, and excluded from
        later runs until released (``repro index doctor``, or the file
        content changing).  Pool-level failures charge every workspace
        in the affected chunks, so this is deliberately generous.
    split_after : int
        Once a chunk has failed this many times it re-dispatches as
        single-workspace chunks, isolating a poison workspace from its
        innocent neighbours.
    backoff_base, backoff_cap : float
        Exponential backoff between retry rounds:
        ``min(cap, base * 2**attempt)`` seconds, scaled by a
        deterministic jitter factor in ``[0.5, 1.5)``.
    """

    chunk_timeout: Optional[float] = 300.0
    quarantine_after: int = 5
    split_after: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self):
        """Validate the retry shape."""
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.split_after < 1:
            raise ValueError("split_after must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")


def _iso_now() -> str:
    """The current local time as an ISO-8601 string with UTC offset."""
    return datetime.now(timezone.utc).astimezone().isoformat(
        timespec="seconds"
    )


def _backoff_delay(policy: RetryPolicy, round_no: int, attempt: int) -> float:
    """Seconds to sleep before retry round ``round_no``.

    Exponential in the highest failed ``attempt``, capped, and spread
    by a jitter factor in ``[0.5, 1.5)`` derived from the round number
    — deterministic for a given schedule (reproducible runs) while
    still decorrelating concurrent runners.
    """
    base = min(policy.backoff_cap, policy.backoff_base * (2.0 ** min(attempt, 6)))
    digest = hashlib.sha256(f"backoff:{round_no}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2.0**32
    return base * jitter


@dataclass(frozen=True)
class WorkspaceResult:
    """One evaluated problem (a workspace, or one of its objectives).

    ``group_json`` carries the canonical JSON of a
    :meth:`~repro.core.engine.GroupResult.to_payload` when the run had
    a member roster; it is ``None`` otherwise.
    """

    index: int
    sub_index: int
    path: str
    name: str
    n_alternatives: int
    n_attributes: int
    best_name: str
    best_minimum: float
    best_average: float
    best_maximum: float
    ever_best: Optional[int] = None
    top5_fluctuation: Optional[int] = None
    group_json: Optional[str] = None

    @property
    def order_key(self) -> Tuple[int, int]:
        """``(index, sub_index)`` — the deterministic merge sort key."""
        return (self.index, self.sub_index)


@dataclass(frozen=True)
class SkippedWorkspace:
    """A registry entry that could not be read or compiled."""

    index: int
    path: str
    error: str


@dataclass(frozen=True)
class RegistryReport:
    """The deterministic merged outcome of one registry run.

    Attributes
    ----------
    results : tuple of WorkspaceResult
        Every evaluated problem, sorted by ``(index, sub_index)`` —
        identical for any worker count, chunk size or cache state.
    skipped : tuple of SkippedWorkspace
        Unreadable registry entries, sorted by registry index.
    n_workspaces : int
        Registry entries submitted (evaluated + cached + skipped).
    n_stacks, n_chunks, workers : int
        Execution-shape metadata; never affects ``results``.
    n_cached : int
        Registry entries served from the persistent index without
        compiling or evaluating (0 when no index was passed).
    n_delta : int
        Registry entries whose edit was absorbed by delta compilation:
        the stale compiled artifact was patched in place
        (:func:`repro.core.workspace.load_compiled_delta`) and only
        that workspace was re-evaluated — numbers still byte-identical
        to a full recompute (0 when no index was passed or the
        configuration rules delta out).
    n_retried : int
        Chunk dispatches that failed (dead pool, hung worker) and were
        re-dispatched to a fresh pool.  Purely informational: the
        merged ``results`` are byte-identical however many retries it
        took.
    n_quarantined : int
        Registry entries excluded from evaluation by the quarantine:
        entries that exhausted :attr:`RetryPolicy.quarantine_after`
        dispatch failures this run, plus entries already held in the
        attached index's quarantine.  They also appear in ``skipped``.
    stage_seconds : tuple of (str, float)
        Per-stage wall-time breakdown — total seconds per span name,
        worker-side spans included, sorted by name.  Populated only
        when a tracer was installed for the run
        (:func:`repro.obs.trace.tracing`); empty otherwise.  Surfaced
        by ``repro batch --stats``.  Execution-shape metadata like
        ``n_chunks``: never affects ``results``.
    """

    results: Tuple[WorkspaceResult, ...]
    skipped: Tuple[SkippedWorkspace, ...]
    n_workspaces: int
    n_stacks: int
    n_chunks: int
    workers: int
    n_cached: int = 0
    n_delta: int = 0
    n_retried: int = 0
    n_quarantined: int = 0
    stage_seconds: Tuple[Tuple[str, float], ...] = ()

    @property
    def n_evaluated(self) -> int:
        """Result rows in the merged report (cached rows included)."""
        return len(self.results)


@dataclass(frozen=True)
class WatchCycle:
    """One polling cycle of :meth:`ShardedRunner.watch`.

    Attributes
    ----------
    cycle : int
        1-based cycle number.
    n_paths : int
        Workspace files the registry expanded to this cycle.
    n_evaluated : int
        Entries freshly evaluated (full compile or delta).
    n_delta : int
        Of those, how many were absorbed by delta compilation.
    n_cached, n_skipped : int
        Entries served from the index / reported unreadable.
    report : RegistryReport
        The cycle's full merged report.
    """

    cycle: int
    n_paths: int
    n_evaluated: int
    n_delta: int
    n_cached: int
    n_skipped: int
    report: RegistryReport


def expand_registry_source(
    source, exclude: Optional[Union[str, Path]] = None
) -> List[str]:
    """Resolve a registry source to this instant's workspace paths.

    ``source`` is a directory, a workspace file, or a sequence of
    either; directories expand recursively to their ``*.json`` files,
    sorted as strings, with hidden files (e.g. the index database's
    WAL siblings) and the ``exclude`` file (an explicit ``--index``
    path that ends in ``.json``) left out.  The one registry walk of
    every verb, the service listing and ``pull``; a watch calls it
    once per cycle, so files created, renamed or deleted between
    cycles are picked up.
    """
    excluded = Path(exclude).resolve() if exclude is not None else None
    entries = (
        [source] if isinstance(source, (str, Path)) else list(source)
    )
    paths: List[str] = []
    for entry in entries:
        root = str(Path(entry))
        if not os.path.isdir(root):
            paths.append(root)
            continue
        found = []
        # "." walks as "./a"; the listing names it "a", as Path does
        strip = 2 if root == "." else 0
        # A recursive "*.json" match: it descends into hidden
        # directories but not into symlinked ones, and lists matching
        # directory entries as well as files.
        for directory, dirnames, filenames in os.walk(root):
            directory = directory[strip:]
            for name in dirnames + filenames:
                if not name.endswith(".json") or name.startswith("."):
                    continue
                path = os.path.join(directory, name)
                if (
                    excluded is not None
                    and name == excluded.name
                    and os.path.realpath(path) == str(excluded)
                ):
                    continue
                found.append(path)
        paths.extend(sorted(found))
    return paths


# ----------------------------------------------------------------------
# Chunking (work stealing for skewed shard sizes)
# ----------------------------------------------------------------------

def shard_registry(
    n_items: int, workers: int, chunk_size: Optional[int] = None
) -> List[range]:
    """Partition ``range(n_items)`` into contiguous work-stealing chunks.

    Chunks default to a quarter of an even split, so ~4 chunks per
    worker queue up and fast workers steal from the backlog instead of
    idling behind one slow shard.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if workers < 1:
        raise ValueError("workers must be positive")
    if chunk_size is None:
        chunk_size = max(1, -(-n_items // (workers * 4)))
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [
        range(start, min(start + chunk_size, n_items))
        for start in range(0, n_items, chunk_size)
    ]


# ----------------------------------------------------------------------
# Chunk evaluation (runs inside workers; top-level for picklability)
# ----------------------------------------------------------------------

def _expand(
    index: int, path: str, problem, options: BatchOptions
) -> List[tuple]:
    """One parsed entry's ``(index, sub_index, path, compiled, roster)``
    tuples: the whole problem, then with ``options.objectives`` each
    top-level objective restriction (the Fig. 7 view).

    ``roster`` is the problem's
    :class:`~repro.core.engine.CompiledRoster` when ``options.group``
    carries a member spec and ``None`` otherwise; rosters resolve
    against the problem's own hierarchy, and structurally identical
    hierarchies share one resolved roster through the group module's
    LRU.  The whole expansion is built before the caller publishes any
    of it, so an entry never ends up both evaluated (partial rows) and
    skipped when a restriction fails to compile.
    """
    roster = None
    if options.group is not None:
        from .group import compiled_roster_for

        roster = compiled_roster_for(options.group, problem.hierarchy)
    expansion = [(index, 0, path, compile_problem(problem), roster)]
    if options.objectives:
        expansion += [
            (
                index,
                sub,
                path,
                compile_problem(problem.restricted_to(child.name)),
                None,
            )
            for sub, child in enumerate(
                problem.hierarchy.root.children, start=1
            )
        ]
    return expansion


#: What loading or expanding one workspace raises for bad content.
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError)


def _skipped(index: int, path: str, exc: Exception) -> SkippedWorkspace:
    """The report entry of a workspace that failed to load or expand."""
    return SkippedWorkspace(
        index=index, path=path, error=f"{type(exc).__name__}: {exc}"
    )


def _load_chunk_problems(
    chunk: Sequence[Tuple[int, str]],
    options: BatchOptions,
    identify: AbstractSet[int] = frozenset(),
):
    """((index, sub_index, path, compiled, roster) list, skipped list,
    identities).

    Expansions and rosters need the object graph, so ``objectives`` and
    ``group`` runs (and ``use_disk_cache=False``) parse the workspace
    JSON; the rest load through the ``.npz`` fast path.  ``identities``
    maps every registry index in ``identify`` that loaded to its
    :class:`~repro.core.workspace.Identity`, read off the artifact or
    derived by the one :func:`~repro.core.workspace.ingest` that parsed
    the file.
    """
    from . import workspace

    parse_graph = (
        options.objectives
        or options.group is not None
        or not options.use_disk_cache
    )
    loaded = []
    skipped: List[SkippedWorkspace] = []
    identities: Dict[int, "workspace.Identity"] = {}
    for index, path in chunk:
        try:
            if not parse_graph:
                compiled, identity = workspace.load_compiled_with_identity(
                    path
                )
                loaded.append((index, 0, path, compiled, None))
            elif index in identify:
                ingested = workspace.ingest(path)
                identity = ingested.identity
                loaded.extend(_expand(index, path, ingested.problem, options))
            else:
                loaded.extend(
                    _expand(index, path, workspace.load(path), options)
                )
            if index in identify:
                identities[index] = identity
        except _LOAD_ERRORS as exc:
            skipped.append(_skipped(index, path, exc))
    return loaded, skipped, identities


def _stacked_mc_summary(ranks) -> Tuple["object", "object"]:
    """(ever_best, top5_fluctuation) per member, as whole-stack array ops.

    ``ranks`` is the stacked ``(P, S, n_alt)`` Monte Carlo tensor.
    Matches the per-problem
    ``len(result.ever_best())`` / ``result.max_fluctuation(
    result.top_k_by_mean(5))`` numbers exactly: same stable mean-rank
    tie-break, same max-minus-min fluctuation — without building a
    result object or a percentile table per problem.
    """
    ever_best = (ranks == 1).any(axis=1).sum(axis=1)
    spread = ranks.max(axis=1) - ranks.min(axis=1)  # (P, n_alt)
    mean_rank = ranks.mean(axis=1)
    by_mean = np.argsort(mean_rank, axis=1, kind="stable")[:, :5]
    top5 = np.take_along_axis(spread, by_mean, axis=1).max(axis=1)
    return ever_best, top5


def _chunk_key(chunk: Sequence[Tuple[int, str]]) -> str:
    """A stable fault-decision key for one chunk dispatch."""
    if not chunk:
        return "chunk:empty"
    return f"chunk:{chunk[0][0]}:{chunk[-1][0]}"


class ChunkOutcome(NamedTuple):
    """What :func:`evaluate_registry_chunk` returns for one chunk.

    ``identities`` maps each requested registry index that loaded to
    its :class:`~repro.core.workspace.Identity`; ``spans`` are the
    worker-side span payloads to stitch into the parent trace.
    """

    results: List[WorkspaceResult]
    skipped: List[SkippedWorkspace]
    n_stacks: int
    identities: Dict[int, object]
    spans: List[Dict[str, object]]


def evaluate_registry_chunk(
    chunk: Sequence[Tuple[int, str]],
    options: BatchOptions,
    attempt: int = 0,
    in_worker: bool = False,
    identify: AbstractSet[int] = frozenset(),
) -> ChunkOutcome:
    """Evaluate one chunk of ``(registry_index, path)`` pairs.

    Loads every workspace (``.npz`` fast path unless the options need
    the object graph), stacks same-shape compiled problems and
    evaluates each stack in one array program.  Returns a
    :class:`ChunkOutcome`; results carry registry indices so the caller
    can merge shards deterministically.

    ``identify`` names the registry indices whose content identity the
    caller has not derived (the runner defers new, artifact-free
    workspaces to the pool): their
    :class:`~repro.core.workspace.Identity` comes back in
    ``identities``, derived by the same single ingest that compiles
    them.

    ``spans`` ships worker-side telemetry home: with ``options.trace``
    set and no tracer installed in this process (the worker case), a
    chunk-local tracer records the evaluation and its finished spans
    return as picklable payloads for the parent to stitch
    (:meth:`repro.obs.trace.Tracer.adopt`).  When a tracer *is*
    installed (the in-process serial path), spans record straight into
    it and ``spans`` is empty.  Either way the numeric results are
    untouched.

    ``attempt`` and ``in_worker`` only matter under a fault plan
    (``options.faults``): retries draw fresh, independent fault
    decisions, and process-killing faults fire only inside pool
    workers — never in the orchestrating process.
    """
    plan = options.faults
    if plan is not None:
        key = _chunk_key(chunk)
        if in_worker:
            plan.maybe_kill(key, attempt)
        plan.maybe_sleep(key, attempt)
        _faults.install(plan)
    # A forked pool worker inherits the parent's installed tracer as a
    # dead copy (same memory image, no channel back), so inside a
    # worker a fresh chunk-local tracer always takes over — its spans
    # travel home in the return value instead.
    tracer = None
    if options.trace and (in_worker or _trace.active() is None):
        tracer = _trace.Tracer()
        _trace.install(tracer)
    try:
        with _span(
            "chunk.evaluate",
            n=len(chunk),
            attempt=attempt,
            worker=in_worker,
        ):
            with _stage("workspace.load", n=len(chunk)):
                loaded, skipped, identities = _load_chunk_problems(
                    chunk, options, identify
                )
            results, n_stacks = _evaluate_loaded(loaded, options)
    finally:
        if tracer is not None:
            _trace.uninstall()
        if plan is not None:
            _faults.uninstall()
    payloads = (
        [record.to_payload() for record in tracer.spans()]
        if tracer is not None
        else []
    )
    return ChunkOutcome(results, skipped, n_stacks, identities, payloads)


def _evaluate_loaded(
    loaded: Sequence[tuple], options: BatchOptions
) -> Tuple[List[WorkspaceResult], int]:
    """Evaluate already-loaded ``(index, sub_index, path, compiled,
    roster)`` entries; returns ``(results, n_stacks)``.

    The single evaluation loop behind both the chunk fan-out and the
    delta fast path — sharing it is what makes delta re-evaluation
    bit-identical to a full run by construction, not by parallel
    maintenance of two code paths.
    """
    compiled_forms = [item[3] for item in loaded]
    stacks = stack_problems(compiled_forms)
    results: List[WorkspaceResult] = []
    for stack in stacks:
        evaluator = StackedEvaluator(stack)
        with _stage("eval.stacked", problems=stack.n_problems):
            evaluations = evaluator.evaluate_all()
        mc_stats = None
        if options.simulations:
            with _stage(
                "eval.montecarlo",
                problems=stack.n_problems,
                simulations=options.simulations,
            ):
                ranks, _ = evaluator.monte_carlo_ranks(
                    method=options.method,
                    n_simulations=options.simulations,
                    seed=options.seed,
                    sample_utilities="missing",
                )
                mc_stats = _stacked_mc_summary(ranks)
        group_payloads = None
        if options.group is not None:
            roster_stack = StackedRoster(
                [loaded[pos][4] for pos in stack.source_indices]
            )
            with _stage("eval.group", problems=stack.n_problems):
                group_payloads = [
                    json.dumps(
                        result.to_payload(),
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    for result in evaluator.group_results(roster_stack)
                ]
        for p, member_pos in enumerate(stack.source_indices):
            index, sub_index, path, compiled, _roster = loaded[member_pos]
            best = evaluations[p].best
            ever_best = top5 = None
            if mc_stats is not None:
                ever_best = int(mc_stats[0][p])
                top5 = int(mc_stats[1][p])
            results.append(
                WorkspaceResult(
                    index=index,
                    sub_index=sub_index,
                    path=path,
                    name=compiled.name,
                    n_alternatives=compiled.n_alternatives,
                    n_attributes=compiled.n_attributes,
                    best_name=best.name,
                    best_minimum=best.minimum,
                    best_average=best.average,
                    best_maximum=best.maximum,
                    ever_best=ever_best,
                    top5_fluctuation=top5,
                    group_json=(
                        group_payloads[p]
                        if group_payloads is not None
                        else None
                    ),
                )
            )
    return results, len(stacks)


def evaluate_problems(
    problems: Sequence[object], options: BatchOptions
) -> RegistryReport:
    """Evaluate in-memory decision problems the way a registry run does.

    For problems that have no workspace file (``repro batch`` with no
    arguments evaluates the built-in case study): each problem is
    registry entry ``i`` with an empty ``path``, expanded and
    evaluated in-process through the same loop as a chunk, so its rows
    equal those of a run over the problem's saved workspace.
    """
    _check_options(options)
    loaded = [
        item
        for i, problem in enumerate(problems)
        for item in _expand(i, "", problem, options)
    ]
    results, n_stacks = _evaluate_loaded(loaded, options)
    results.sort(key=lambda r: r.order_key)
    return RegistryReport(
        results=tuple(results),
        skipped=(),
        n_workspaces=len(problems),
        n_stacks=n_stacks,
        n_chunks=0,
        workers=1,
    )


def _check_options(options: BatchOptions) -> None:
    """Reject option combinations no run can evaluate."""
    if options.group is not None and options.objectives:
        raise ValueError(
            "group and objectives runs are mutually exclusive: a "
            "member roster applies to whole workspaces, not to "
            "per-objective restrictions"
        )


def _from_cached(
    index: int, path: str, rows: Sequence[object]
) -> List[WorkspaceResult]:
    """Cached index rows re-applied to one registry entry."""
    return [
        WorkspaceResult(
            index=index,
            sub_index=row.sub_index,
            path=path,
            name=row.name,
            n_alternatives=row.n_alternatives,
            n_attributes=row.n_attributes,
            best_name=row.best_name,
            best_minimum=row.best_minimum,
            best_average=row.best_average,
            best_maximum=row.best_maximum,
            ever_best=row.ever_best,
            top5_fluctuation=row.top5_fluctuation,
            group_json=row.group_json,
        )
        for row in rows
    ]


# ----------------------------------------------------------------------
# The sharded runner
# ----------------------------------------------------------------------

class ShardedRunner:
    """Run a workspace registry across processes, merging deterministically.

    ``workers=None`` picks ``os.cpu_count()`` (capped at 8);
    ``workers=1`` (or a single-chunk registry) evaluates in-process —
    the merged report is byte-identical either way, which the tests and
    the ``BENCH_sharded_batch`` trajectory assert.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        options: Optional[BatchOptions] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        """Configure the pool shape, evaluation options and retry policy."""
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.chunk_size = chunk_size
        self.options = options or BatchOptions()
        self.retry = retry or RetryPolicy()

    # ------------------------------------------------------------------
    def run(
        self,
        paths: Sequence[Union[str, Path]],
        index=None,
        refresh: bool = False,
    ) -> RegistryReport:
        """Evaluate every workspace in ``paths`` (registry order).

        Parameters
        ----------
        paths : sequence of str or Path
            The registry: workspace JSON files, in report order.
        index : RegistryIndex, optional
            A :class:`~repro.core.index.RegistryIndex` to consult
            first.  Workspaces whose content hash already has cached
            rows for this run's configuration skip compilation and
            evaluation; changed workspaces whose structure held are
            delta-compiled against their previous artifact and
            re-evaluated alone (``n_delta`` in the report); everything
            else is evaluated as usual and the index is updated
            atomically after the merge.
        refresh : bool, optional
            With ``index``: ignore cached rows (re-evaluate everything)
            but overwrite them with the fresh results.

        Returns
        -------
        RegistryReport
            Byte-identical for any worker count, chunk size, cache
            state or ``refresh`` value — caching only changes *when*
            numbers are computed, never what they are.  With a tracer
            installed (:func:`repro.obs.trace.tracing`) the run also
            records a span tree — worker spans stitched in — and the
            report's ``stage_seconds`` carries the per-stage totals.
        """
        tracer = _trace.active()
        mark = tracer.mark() if tracer is not None else 0
        with _span(
            "registry.run", n=len(paths), workers=self.workers
        ):
            report = self._run(paths, index, refresh)
        if tracer is None:
            return report
        totals: Dict[str, float] = {}
        for record in tracer.spans_since(mark):
            totals[record.name] = (
                totals.get(record.name, 0.0) + record.duration_us / 1e6
            )
        return replace(report, stage_seconds=tuple(sorted(totals.items())))

    def _run(
        self,
        paths: Sequence[Union[str, Path]],
        index=None,
        refresh: bool = False,
    ) -> RegistryReport:
        """The :meth:`run` body (wrapped in the ``registry.run`` span)."""
        _check_options(self.options)
        indexed = [(i, str(p)) for i, p in enumerate(paths)]
        cached_results: List[WorkspaceResult] = []
        quarantine_skipped: List[SkippedWorkspace] = []
        active = indexed
        pending = indexed
        to_evaluate = indexed
        # entries evaluated in process from the probe's own ingest (a
        # delta patch or a lowering), and the ones that failed to lower
        loaded: List[tuple] = []
        n_delta = 0
        parse_skipped: List[SkippedWorkspace] = []
        records: Dict[str, object] = {}
        # registry index -> the stat taken when its probe was deferred
        deferred: Dict[int, os.stat_result] = {}
        config_hash = None
        n_cached = 0
        if index is not None:
            from . import workspace as _workspace
            from .index import eval_config_hash

            config_hash = eval_config_hash(self.options)
            active, quarantine_skipped = self._apply_quarantine(
                index, indexed, _workspace
            )
            # Delta compilation patches the previous compiled artifact,
            # so it needs the artifact machinery and a configuration the
            # fast path can serve: no object-graph expansions
            # (objectives/group) and no forced re-evaluation.
            delta_ok = (
                not refresh
                and self.options.use_disk_cache
                and not self.options.objectives
                and self.options.group is None
            )
            pending = []
            to_evaluate = []
            with _stage("index.probe", entries=len(active)):
                for i, path in active:
                    record, status, evidence = index.examine(path)
                    ingested = None
                    if evidence is not None:
                        if evidence.stored is None and evidence.arrays is None:
                            # Nothing stored and nothing compiled to
                            # reuse: the worker that compiles it derives
                            # the fingerprint from its one ingest, and
                            # the merge completes the row.
                            deferred[i] = evidence.st
                            pending.append((i, path))
                            to_evaluate.append((i, path))
                            continue
                        try:
                            record, ingested = index.derive(evidence)
                        except _LOAD_ERRORS as exc:
                            # reported from the probe's own failed
                            # parse, never parsed again in a chunk
                            parse_skipped.append(_skipped(i, path, exc))
                            continue
                    if record is not None:
                        records[path] = record
                    rows = None
                    if record is not None and not refresh:
                        rows = index.lookup_results(
                            record.content_hash, config_hash
                        )
                    if rows is None:
                        pending.append((i, path))
                        if ingested is None:
                            to_evaluate.append((i, path))
                            continue
                        # The probe parsed this edit: evaluate that parse
                        # here, never in a chunk that would read, parse
                        # and hash the file a second time.
                        old = evidence.stored
                        if (
                            delta_ok
                            and old.component_json
                            and evidence.stale_arrays is not None
                        ):
                            delta = _workspace.load_compiled_delta(
                                path,
                                old.content_hash,
                                old.component_json,
                                ingested,
                                evidence.stale_arrays,
                            )
                            if delta is not None:
                                n_delta += 1
                                loaded.append((i, 0, path, delta.compiled, None))
                                continue
                        try:
                            with _stage("workspace.lower", path=path):
                                expansion = _expand(
                                    i, path, ingested.problem, self.options
                                )
                        except _LOAD_ERRORS as exc:
                            parse_skipped.append(_skipped(i, path, exc))
                            continue
                        if self.options.use_disk_cache:
                            # the artifact a chunk's compile would write
                            _workspace._persist_artifact(
                                expansion[0][3],
                                _workspace.compiled_array_path(path),
                                ingested,
                            )
                        loaded.extend(expansion)
                        continue
                    n_cached += 1
                    if status == "fresh" and not index.needs_restamp(
                        record
                    ):
                        # Out-of-window fresh hit: fingerprint and
                        # results are both already persisted — writing
                        # the row again would only force a WAL
                        # checkpoint.
                        del records[path]
                    cached_results.extend(_from_cached(i, path, rows))

        chunk_ranges = shard_registry(
            len(to_evaluate), self.workers, self.chunk_size
        )
        chunks = [
            [to_evaluate[i] for i in chunk_range]
            for chunk_range in chunk_ranges
            if len(chunk_range)
        ]

        results: List[WorkspaceResult] = []
        skipped: List[SkippedWorkspace] = []
        identities: Dict[int, object] = {}
        identify = frozenset(deferred)
        n_stacks = 0
        if loaded:
            # Only the entries the probe ingested run here, through the
            # same evaluation loop the chunk workers use.  Monte Carlo
            # runs are full per-problem re-evaluations — each problem's
            # seeded stream is its own, so this is still bit-identical
            # to a cold run.
            results, n_stacks = _evaluate_loaded(loaded, self.options)
        n_retried = 0
        newly_quarantined: List[SkippedWorkspace] = []
        if self.workers == 1 or len(chunks) <= 1:
            # In-process: spans record straight into any installed
            # tracer, so the shipped-payload slot is always empty here.
            for chunk in chunks:
                outcome = evaluate_registry_chunk(
                    chunk, self.options, identify=identify
                )
                results.extend(outcome.results)
                skipped.extend(outcome.skipped)
                n_stacks += outcome.n_stacks
                identities.update(outcome.identities)
        else:
            (
                r,
                s,
                k,
                identities,
                n_retried,
                newly_quarantined,
            ) = self._fan_out(chunks, identify)
            results.extend(r)
            skipped.extend(s)
            n_stacks += k

        if index is not None:
            if newly_quarantined:
                index.record_quarantine(
                    (q.path, self.retry.quarantine_after, q.error)
                    for q in newly_quarantined
                )
            with _stage("index.commit", entries=len(records)):
                # A deferred entry's row is the identity its chunk
                # shipped home plus the stat taken before dispatch, so
                # _persist_run's re-stat guard still catches an edit made
                # during the run; an entry that was skipped, or whose
                # chunk never completed, records nothing.  Then the
                # content lookup its probe skipped: known content that
                # arrived without its artifact (a copy, a rename) is
                # reported from cache, as a probe-time hit would have
                # been, and its fresh evaluation dropped.
                hits = set()
                for i, st in deferred.items():
                    identity = identities.get(i)
                    if identity is None:
                        continue
                    path = indexed[i][1]
                    record = index.fingerprint(path, st, identity)
                    records[path] = record
                    rows = None
                    if not refresh:
                        rows = index.lookup_results(
                            record.content_hash, config_hash
                        )
                    if rows is not None:
                        hits.add(i)
                        cached_results.extend(_from_cached(i, path, rows))
                if hits:
                    results = [r for r in results if r.index not in hits]
                    n_cached += len(hits)
                self._persist_run(
                    index, config_hash, records, pending, results
                )

        self._count_run(n_cached, n_delta, n_retried, len(newly_quarantined))
        skipped.extend(parse_skipped)
        skipped.extend(newly_quarantined)
        skipped.extend(quarantine_skipped)
        results.extend(cached_results)
        results.sort(key=lambda r: r.order_key)
        skipped.sort(key=lambda s: s.index)
        return RegistryReport(
            results=tuple(results),
            skipped=tuple(skipped),
            n_workspaces=len(indexed),
            n_stacks=n_stacks,
            n_chunks=len(chunks),
            workers=self.workers,
            n_cached=n_cached,
            n_delta=n_delta,
            n_retried=n_retried,
            n_quarantined=len(newly_quarantined) + len(quarantine_skipped),
        )

    @staticmethod
    def _count_run(
        n_cached: int, n_delta: int, n_retried: int, n_quarantined: int
    ) -> None:
        """Fold one run's outcome into the process-wide metrics."""
        reg = _metrics.registry()
        reg.counter(
            "repro_index_cache_hits_total",
            "Registry entries served from the persistent index.",
        ).inc(n_cached)
        reg.counter(
            "repro_delta_hits_total",
            "Registry entries absorbed by delta compilation.",
        ).inc(n_delta)
        reg.counter(
            "repro_chunk_retries_total",
            "Chunk dispatches re-dispatched after a failure.",
        ).inc(n_retried)
        reg.counter(
            "repro_quarantined_total",
            "Workspaces newly quarantined after repeated failures.",
        ).inc(n_quarantined)

    @staticmethod
    def _apply_quarantine(
        index, indexed: List[Tuple[int, str]], _workspace
    ) -> Tuple[List[Tuple[int, str]], List[SkippedWorkspace]]:
        """Split the registry into active entries and quarantined skips.

        An entry held in the index's quarantine is excluded from
        evaluation — unless its file content changed since it was
        quarantined (the operator presumably fixed it), in which case
        it is released and evaluated normally.  The common case —
        empty quarantine — is one index read.
        """
        held = index.quarantine_map()
        if not held:
            return indexed, []
        active: List[Tuple[int, str]] = []
        quarantine_skipped: List[SkippedWorkspace] = []
        released: List[str] = []
        for i, path in indexed:
            row = held.get(os.path.abspath(path))
            if row is None:
                active.append((i, path))
                continue
            try:
                sha = _workspace._file_sha256(Path(path))
            except OSError:
                sha = None
            if sha is not None and sha != row.source_sha:
                released.append(path)
                active.append((i, path))
                continue
            quarantine_skipped.append(
                SkippedWorkspace(
                    index=i,
                    path=path,
                    error=(
                        f"quarantined after {row.failures} failed "
                        f"dispatch(es) ({row.last_error}); release with "
                        f"`repro index doctor` or by editing the file"
                    ),
                )
            )
        if released:
            index.release_quarantine(released)
        return active, quarantine_skipped

    def _fan_out(
        self,
        chunks: List[List[Tuple[int, str]]],
        identify: AbstractSet[int] = frozenset(),
    ) -> Tuple[
        List[WorkspaceResult],
        List[SkippedWorkspace],
        int,
        Dict[int, object],
        int,
        List[SkippedWorkspace],
    ]:
        """The crash-tolerant pool fan-out.

        Dispatches every chunk to a ``ProcessPoolExecutor`` and merges
        whatever completes — a dead worker (``BrokenProcessPool``) or a
        hung one (no completion inside
        :attr:`RetryPolicy.chunk_timeout`) never discards results that
        already arrived.  Failed chunks re-dispatch to a *fresh* pool
        with exponential backoff, splitting into single-workspace
        chunks after :attr:`RetryPolicy.split_after` charged failures;
        workspaces that keep failing are quarantined after
        :attr:`RetryPolicy.quarantine_after` strikes.

        Failure attribution: one dead worker breaks the *whole* pool,
        failing every in-flight future — charging all of them would
        quarantine innocent workspaces after a handful of crashes.  A
        ``BrokenExecutor`` failure is therefore collateral (re-dispatch
        without penalty) as long as the round completed *something*;
        only a round with zero progress charges the pool break to its
        chunks, which still corners a chunk that deterministically
        kills its worker — once it is all that remains, every round is
        progress-free and it accumulates strikes until quarantine.
        Returns ``(results, skipped, n_stacks, identities, n_retried,
        quarantined)``; ``identities`` holds the shipped identities of
        the ``identify`` entries whose chunk completed.

        Tracing: when a tracer is installed in this (parent) process,
        chunks dispatch with ``options.trace`` forced on, workers ship
        their spans back inside the chunk results, and after the last
        round the shipped spans stitch into the parent trace under the
        ``registry.fan_out`` span — sorted by (first registry index,
        attempt) so the merged trace is deterministic however the
        completion order fell out.
        """
        from concurrent.futures.process import BrokenProcessPool

        policy = self.retry
        tracer = _trace.active()
        options = (
            replace(self.options, trace=True)
            if tracer is not None
            else self.options
        )
        payload_batches: List[
            Tuple[int, int, List[Dict[str, object]]]
        ] = []
        fan_span_id: Optional[str] = None
        results: List[WorkspaceResult] = []
        skipped: List[SkippedWorkspace] = []
        identities: Dict[int, object] = {}
        n_stacks = 0
        n_retried = 0
        quarantined: List[SkippedWorkspace] = []
        failures: Dict[int, int] = {}
        work: List[Tuple[List[Tuple[int, str]], int]] = [
            (list(chunk), 0) for chunk in chunks
        ]
        round_no = 0
        with _span("registry.fan_out", chunks=len(chunks)) as fan_span:
            if fan_span is not None:
                fan_span_id = fan_span.span_id
            while work:
                batch, work = work, []
                failed: List[
                    Tuple[Tuple[List[Tuple[int, str]], int], str, bool]
                ] = []
                with _span(
                    "registry.round", round=round_no, chunks=len(batch)
                ):
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                    futures = {
                        pool.submit(
                            evaluate_registry_chunk,
                            chunk,
                            options,
                            attempt,
                            True,
                            identify,
                        ): (chunk, attempt)
                        for chunk, attempt in batch
                    }
                    hung = False
                    progressed = False
                    pending = set(futures)
                    while pending:
                        done, pending = wait(
                            pending, timeout=policy.chunk_timeout
                        )
                        if not done:
                            # Nothing at all completed inside the
                            # window: the in-flight workers are hung.
                            # Chunks still queued (cancellable)
                            # re-dispatch without penalty; the hung
                            # ones count as failures.  The pool is
                            # abandoned without waiting.
                            for future in pending:
                                item = futures[future]
                                if future.cancel():
                                    work.append(item)
                                else:
                                    failed.append(
                                        (
                                            item,
                                            "no progress within "
                                            f"{policy.chunk_timeout:g}s",
                                            False,
                                        )
                                    )
                            hung = True
                            break
                        for future in done:
                            chunk, attempt = futures[future]
                            try:
                                outcome = future.result()
                            except Exception as exc:
                                failed.append(
                                    (
                                        futures[future],
                                        f"{type(exc).__name__}: {exc}",
                                        isinstance(exc, BrokenProcessPool),
                                    )
                                )
                                continue
                            results.extend(outcome.results)
                            skipped.extend(outcome.skipped)
                            n_stacks += outcome.n_stacks
                            identities.update(outcome.identities)
                            if outcome.spans:
                                payload_batches.append(
                                    (
                                        chunk[0][0] if chunk else -1,
                                        attempt,
                                        outcome.spans,
                                    )
                                )
                            progressed = True
                    pool.shutdown(wait=not hung, cancel_futures=True)

                max_attempt = 0
                any_charged = False
                for (chunk, attempt), error, collateral in failed:
                    charge = not (collateral and progressed)
                    any_charged = any_charged or charge
                    max_attempt = max(max_attempt, attempt)
                    survivors: List[Tuple[int, str]] = []
                    for entry in chunk:
                        i, path = entry
                        if charge:
                            failures[i] = failures.get(i, 0) + 1
                        if failures.get(i, 0) >= policy.quarantine_after:
                            quarantined.append(
                                SkippedWorkspace(
                                    index=i,
                                    path=path,
                                    error=(
                                        f"quarantined after {failures[i]} "
                                        "failed dispatch(es) "
                                        f"(last: {error})"
                                    ),
                                )
                            )
                        else:
                            survivors.append(entry)
                    if not survivors:
                        continue
                    n_retried += 1
                    worst = max(failures.get(i, 0) for i, _ in survivors)
                    if len(survivors) > 1 and worst >= policy.split_after:
                        work.extend(
                            ([entry], attempt + 1) for entry in survivors
                        )
                    else:
                        work.append((survivors, attempt + 1))
                if any_charged and work:
                    time.sleep(
                        _backoff_delay(policy, round_no, max_attempt)
                    )
                round_no += 1
        if tracer is not None and payload_batches:
            # Deterministic stitch: shipped batches sort by the
            # chunk's first registry index (then attempt), not by
            # completion order, so identical runs produce identical
            # merged traces.
            for _, _, batch in sorted(
                payload_batches, key=lambda item: (item[0], item[1])
            ):
                tracer.adopt(batch, parent_id=fan_span_id)
        return results, skipped, n_stacks, identities, n_retried, quarantined

    @staticmethod
    def _persist_run(
        index,
        config_hash: str,
        records: Dict[str, object],
        pending: Sequence[Tuple[int, str]],
        fresh: Sequence[WorkspaceResult],
    ) -> None:
        """The single-writer merge: record fingerprints + fresh results.

        Groups the freshly evaluated rows by registry entry, converts
        each complete group to path-free
        :class:`~repro.core.index.CachedResult` rows under its content
        hash, and hands everything to
        :meth:`~repro.core.index.RegistryIndex.record_run` as one
        atomic transaction.  Skipped (unreadable) entries have no
        record and are never cached.

        Guard against mid-run edits: workers re-read each file at
        evaluation time, so a workspace edited between the probe and
        this merge would associate the *new* content's numbers with the
        *old* content hash.  Every freshly evaluated entry is therefore
        re-stat'ed here — if its fingerprint no longer matches the
        probe, neither its results nor its fingerprint are recorded
        (the next run simply re-evaluates it).
        """
        from .index import CachedResult

        path_by_index = dict(pending)
        by_entry: Dict[int, List[WorkspaceResult]] = {}
        for result in fresh:
            by_entry.setdefault(result.index, []).append(result)
        to_record = dict(records)
        store: Dict[str, Tuple[CachedResult, ...]] = {}
        for i, rows in by_entry.items():
            path = path_by_index[i]
            record = records.get(path)
            if record is None:
                continue
            try:
                st = os.stat(record.path)
            except OSError:
                st = None
            if st is None or (
                st.st_mtime_ns,
                st.st_size,
                st.st_ctime_ns,
            ) != (
                record.mtime_ns,
                record.size,
                record.ctime_ns,
            ):
                to_record.pop(path, None)
                continue
            store[record.content_hash] = tuple(
                CachedResult(
                    sub_index=row.sub_index,
                    name=row.name,
                    n_alternatives=row.n_alternatives,
                    n_attributes=row.n_attributes,
                    best_name=row.best_name,
                    best_minimum=row.best_minimum,
                    best_average=row.best_average,
                    best_maximum=row.best_maximum,
                    ever_best=row.ever_best,
                    top5_fluctuation=row.top5_fluctuation,
                    group_json=row.group_json,
                )
                for row in sorted(rows, key=lambda r: r.sub_index)
            )
        index.record_run(to_record.values(), store, config_hash)

    def watch(
        self,
        source,
        index,
        interval: float = 1.0,
        max_cycles: Optional[int] = None,
        on_cycle=None,
        max_poll_failures: int = 8,
    ) -> List[WatchCycle]:
        """Follow a registry: poll, ingest deltas, repeat.

        Each cycle re-expands ``source``
        (:func:`expand_registry_source`, so new/renamed/deleted files
        are noticed), runs the registry through :meth:`run` against
        ``index``, and reports a :class:`WatchCycle`.  Between cycles
        the index's stat fingerprints classify every unchanged file in
        one ``stat`` call, an edited file delta-compiles when its
        structure held, and only genuinely new content is evaluated —
        steady-state cycles over an N-workspace registry cost N stats
        and zero evaluations.

        Parameters
        ----------
        source : str, Path or sequence
            Registry directory (or explicit files) to re-expand every
            cycle.
        index : RegistryIndex
            The persistent index that carries state across cycles.
        interval : float, optional
            Seconds to sleep between cycles (the first cycle runs
            immediately).
        max_cycles : int, optional
            Stop after this many cycles; ``None`` follows forever
            (interrupt to stop).
        on_cycle : callable, optional
            Called with each :class:`WatchCycle` as it completes (e.g.
            to print a delta report); returning ``False`` — exactly —
            stops the watch after that cycle.
        max_poll_failures : int, optional
            A transient ``OSError`` while expanding or running the
            registry (an NFS blip, a directory mid-rename) is logged to
            stderr and retried with exponential backoff instead of
            killing the follow loop; after this many *consecutive*
            failures the error propagates.

        Returns
        -------
        list of WatchCycle
            Every completed cycle, in order.
        """
        cycles: List[WatchCycle] = []
        poll_failures = 0
        while max_cycles is None or len(cycles) < max_cycles:
            if cycles or poll_failures:
                backoff = min(2.0**poll_failures, 8.0) if poll_failures else 1.0
                time.sleep(interval * backoff)
            try:
                plan = self.options.faults
                if plan is not None:
                    plan.strike(
                        "registry_poll",
                        f"cycle:{len(cycles) + 1}",
                        attempt=poll_failures,
                    )
                paths = expand_registry_source(source, index.db_path)
                report = self.run(paths, index=index)
            except OSError as exc:
                poll_failures += 1
                # The ISO-8601 stamp lets a watch-mode incident line up
                # against trace files and the service's JSON access log.
                print(
                    f"{_iso_now()} watch: transient "
                    f"{type(exc).__name__} during "
                    f"registry poll ({exc}); "
                    f"retry {poll_failures}/{max_poll_failures}",
                    file=sys.stderr,
                )
                if poll_failures >= max_poll_failures:
                    raise
                continue
            poll_failures = 0
            cycle = WatchCycle(
                cycle=len(cycles) + 1,
                n_paths=len(paths),
                n_evaluated=(
                    report.n_workspaces
                    - report.n_cached
                    - len(report.skipped)
                ),
                n_delta=report.n_delta,
                n_cached=report.n_cached,
                n_skipped=len(report.skipped),
                report=report,
            )
            cycles.append(cycle)
            if on_cycle is not None and on_cycle(cycle) is False:
                break
        return cycles

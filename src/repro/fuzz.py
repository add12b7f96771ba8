"""Differential fuzzing — tensor paths versus an independent reference.

Every generated problem (see :mod:`repro.core.genreg`) is driven
through the stacked, delta, group and Monte-Carlo tensor paths, and
each output is asserted **bit-identical** to a per-problem reference:
the plain 2-D NumPy programs :func:`reference_readings` and
:func:`reference_monte_carlo` (which share only the weight samplers
and :func:`~repro.core.engine.rank_matrix` with the engine), full
recompilation, and per-pair HiGHS LPs.  The oracles:

``roundtrip``
    Workspace JSON encode → decode preserves the content hash and
    every compiled array bit-for-bit.
``stacked-eval``
    :class:`~repro.core.engine.StackedEvaluator` min/avg/max utilities
    and ranking orders equal :func:`reference_readings` per member.
``stacked-mc``
    Stacked Monte Carlo ranks (all three §V weight classes × all three
    utility-sampling modes, cycled per chunk) equal per-problem seeded
    runs of :func:`reference_monte_carlo`.
``delta``
    :func:`~repro.core.engine.delta_compile` after a deterministic
    cell/weight mutation equals a from-scratch compile on every array
    field.
``group``
    Every field of the stacked
    :meth:`~repro.core.engine.StackedEvaluator.group_results` equals
    :func:`reference_group_result` (member, Borda, tolerant and
    consensus rankings from problems *recompiled* per weight system),
    and each member's result equals its one-member (``P = 1``) result.
``dominance``
    The closed-form stacked dominance tensors equal a per-pair HiGHS
    :func:`~repro.core.dominance.dominates` oracle on every case, and
    the stacked rank intervals equal the ones that oracle implies.

A divergence is shrunk by greedily simplifying the failing spec while
the failure persists, then re-emitted as a replayable JSON repro file
(``repro-fuzz/1``) that :func:`replay` — or ``repro fuzz --replay`` —
re-executes.

CLI entry points: ``repro fuzz --cases N --seed S`` and the standalone
``python tools/fuzz.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import genreg, workspace
from .core.engine import (
    BatchEvaluator,
    GroupResult,
    StackedEvaluator,
    StackedRoster,
    compile_problem,
    compile_roster,
    delta_compile,
    rank_matrix,
    sample_weights,
    stack_problems,
)
from .core.dominance import dominates
from .core.genreg import RegistrySpec
from .core.group import aggregate_weights, borda_ranking, members_from_spec
from .core.performance import Alternative, PerformanceTable
from .core.problem import DecisionProblem
from .core.rankintervals import rank_intervals
from .core.scales import MISSING, DiscreteScale
from .core.weights import WeightSystem
from .core.interval import Interval

__all__ = [
    "REPRO_FORMAT",
    "Divergence",
    "FuzzReport",
    "run_fuzz",
    "check_chunk",
    "dominance_oracle",
    "reference_readings",
    "reference_monte_carlo",
    "reference_group_result",
    "shrink_spec",
    "write_repro",
    "replay",
    "main",
]

#: Format tag of an emitted repro file.
REPRO_FORMAT = "repro-fuzz/1"

#: The compiled-form array fields every bit-identity oracle compares.
_ARRAY_FIELDS = (
    "u_low",
    "u_avg",
    "u_up",
    "missing",
    "w_low",
    "w_avg",
    "w_up",
    "key_low",
    "key_up",
    "key_count",
    "alt_key",
)

_MC_METHODS = ("random", "rank_order", "intervals")
_MC_MODES = (False, "missing", "all")


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a tensor path and the reference."""

    oracle: str
    case: int
    detail: str


@dataclass
class FuzzReport:
    """Everything one fuzz run produced (see :func:`run_fuzz`)."""

    spec: RegistrySpec
    cases: int
    n_checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    repro_files: List[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every oracle agreed on every case."""
        return not self.divergences


def _mc_seed(spec: RegistrySpec, index: int) -> int:
    """The per-case Monte Carlo seed (deterministic, spec-keyed)."""
    return (int(spec.seed) * 1_000_003 + index) & 0x7FFFFFFF


def _chunk_method_mode(chunk_no: int) -> Tuple[str, object]:
    """Cycle the 3×3 (weight method, utility mode) grid across chunks."""
    return _MC_METHODS[chunk_no % 3], _MC_MODES[(chunk_no // 3) % 3]


def _arrays_equal(a: object, b: object) -> Optional[str]:
    """Name of the first differing compiled array field, or ``None``."""
    for name in _ARRAY_FIELDS:
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return name
    return None


def _member_spec(
    spec: RegistrySpec, index: int, problem: DecisionProblem, members: int
):
    """A deterministic roster spec over the problem's hierarchy."""
    rng = np.random.default_rng([0x6D656D, int(spec.seed), int(index)])
    nodes = [
        n.name
        for n in problem.hierarchy.nodes()
        if n.name != problem.hierarchy.root.name
    ]
    roster = []
    for k in range(members):
        intervals = []
        for node in nodes:
            lo = 0.2 + 0.6 * float(rng.random())
            hi = lo + 0.5 * float(rng.random())
            intervals.append((node, lo, hi))
        roster.append((f"dm{k}", tuple(intervals)))
    return tuple(roster)


def _mutate(
    spec: RegistrySpec, index: int, problem: DecisionProblem
) -> Tuple[DecisionProblem, List[int]]:
    """A deterministic single-component edit of ``problem``.

    Returns the edited problem and the ``changed_rows`` list
    :func:`~repro.core.engine.delta_compile` needs (empty for a
    weights-only edit).
    """
    rng = np.random.default_rng([0x6D7574, int(spec.seed), int(index)])
    if rng.random() < 0.3:
        # Weights-only edit: rescale every raw local interval.
        raw: Dict[str, Interval] = {}
        for node in problem.hierarchy.nodes():
            if node.name == problem.hierarchy.root.name:
                continue
            iv = problem.weights.local_interval(node.name)
            factor = 0.5 + float(rng.random())
            raw[node.name] = Interval(iv.lower * factor, iv.upper * factor + 1e-9)
        edited = problem.with_weights(
            WeightSystem.from_raw_intervals(problem.hierarchy, raw)
        )
        return edited, []

    # Cell edit: one (alternative, attribute) performance.
    alts = list(problem.table.alternatives)
    row = int(rng.integers(0, len(alts)))
    attrs = problem.hierarchy.attribute_names
    attr = attrs[int(rng.integers(0, len(attrs)))]
    scale = problem.table.scale_of(attr)
    old = alts[row].performance(attr)
    if old is not MISSING and rng.random() < 0.3:
        new: object = MISSING
    elif isinstance(scale, DiscreteScale):
        new = (int(old) + 1) % len(scale) if old is not MISSING else 0
        if new == old:
            new = MISSING
    else:
        mid = round((scale.minimum + scale.maximum) / 2.0, 6)
        new = mid if old != mid else round(
            scale.minimum + 0.25 * (scale.maximum - scale.minimum), 6
        )
    performances = dict(alts[row].performances)
    performances[attr] = new
    alts[row] = Alternative(alts[row].name, performances)
    scales = {a: problem.table.scale_of(a) for a in problem.table.attribute_names}
    edited = DecisionProblem(
        problem.hierarchy,
        PerformanceTable(scales, alts),
        problem.utilities,
        problem.weights,
        name=problem.name,
    )
    return edited, [row]


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def dominance_oracle(model) -> np.ndarray:
    """The dominance matrix from per-pair HiGHS LPs (:func:`dominates`).

    The independent reference for the closed-form kernel; ``model`` is
    anything :func:`~repro.core.dominance.dominates` accepts.
    """
    names = model.alternative_names
    return np.array(
        [[a != b and dominates(model, a, b) for b in names] for a in names],
        dtype=bool,
    )


def reference_readings(compiled) -> Dict[str, np.ndarray]:
    """The §IV readings of one problem as plain 2-D NumPy.

    ``min``/``avg``/``max`` overall utilities (one matrix-vector product
    each) and the Fig. 6 ``order``: alternative indices by decreasing
    average utility, ties broken on the alternative name.  The
    independent reference for the stacked evaluation kernel.
    """
    c = compiled
    avg = c.u_avg @ c.w_avg
    return {
        "min": c.u_low @ c.w_low,
        "avg": avg,
        "max": c.u_up @ c.w_up,
        "order": np.lexsort((np.array(c.alternative_names), -avg)),
    }


def reference_monte_carlo(
    compiled,
    method: str,
    n_simulations: int,
    seed: int,
    sample_utilities: object = False,
) -> Tuple[np.ndarray, float]:
    """``(ranks, acceptance)`` of one §V simulation class as plain 2-D NumPy.

    Draws from one ``default_rng(seed)`` stream in the engine's order:
    the weights (:func:`~repro.core.engine.sample_weights`), then the
    utilities — ``"missing"``: one uniform ``(S, n_cells)`` draw over
    the missing cells in row-major order, applied as per-cell
    corrections; ``True``/``"all"``: one uniform draw per utility
    class, monotonised along the preference order and shared by every
    alternative on that level.  The independent reference for the
    stacked Monte Carlo kernel.
    """
    c = compiled
    rng = np.random.default_rng(seed)
    weights, acceptance = sample_weights(c, method, n_simulations, rng)
    if sample_utilities in (True, "all"):
        draws = rng.uniform(
            c.key_low[None],
            c.key_up[None],
            size=(n_simulations, c.n_attributes, c.key_low.shape[1]),
        )
        draws = np.maximum.accumulate(draws, axis=2)
        # u[s, i, j] = draws[s, j, alt_key[j, i]]
        u = draws[:, np.arange(c.n_attributes)[None, :], c.alt_key.T]
        utilities = np.einsum("saj,sj->sa", u, weights)
    else:
        utilities = weights @ c.u_avg.T
        if sample_utilities == "missing" and c.missing.any():
            rows, cols = np.nonzero(c.missing)
            draws = rng.uniform(0.0, 1.0, size=(n_simulations, len(rows)))
            delta = draws - c.u_avg[rows, cols][None, :]
            # Unbuffered, so corrections to one row add up in cell order.
            np.add.at(utilities, (slice(None), rows), weights[:, cols] * delta)
    return rank_matrix(utilities), acceptance


def reference_group_result(problem, members) -> GroupResult:
    """The group outcome of one problem, rebuilt by recompiling.

    Every ranking is the :func:`reference_readings` order of
    ``problem.with_weights(...)`` under one member's weights or an
    aggregated system (``hull`` → tolerant, ``intersection`` →
    consensus, ``None`` when it is infeasible), and Borda is the
    dict-count :func:`~repro.core.group.borda_ranking`.  The
    independent reference for the stacked group kernel.
    """

    def ranking(weights):
        c = compile_problem(problem.with_weights(weights))
        order = reference_readings(c)["order"]
        return tuple(c.alternative_names[k] for k in order)

    rankings = tuple(ranking(m.weights) for m in members)
    try:
        consensus = ranking(aggregate_weights(members, "intersection"))
    except ValueError:
        consensus = None
    roster = compile_roster(members, problem.hierarchy)
    return GroupResult(
        member_names=tuple(m.name for m in members),
        member_rankings=rankings,
        borda=borda_ranking(rankings),
        tolerant=ranking(aggregate_weights(members, "hull")),
        consensus=consensus,
        disjoint=roster.disjoint_nodes,
        disagreement=tuple(roster.disagreement().items()),
    )


def check_chunk(
    spec: RegistrySpec,
    indices: Sequence[int],
    simulations: int = 24,
    members: int = 3,
) -> Tuple[List[Divergence], int]:
    """Run every oracle over one chunk of case indices.

    Returns ``(divergences, n_checks)``.  The chunk is the unit of
    stacking — cases inside it stack by shape, so cross-problem tensor
    behaviour is exercised without requiring the whole registry in
    memory.  Deterministic in ``(spec, indices)``.
    """
    out: List[Divergence] = []
    checks = 0
    chunk_no = min(indices) // max(1, len(indices))
    method, mode = _chunk_method_mode(chunk_no)

    problems = [genreg.generate_problem(spec, i) for i in indices]
    compiled = []
    for i, problem in zip(indices, problems):
        # -- roundtrip oracle ------------------------------------------
        checks += 1
        payload = json.dumps(workspace.to_dict(problem), sort_keys=True)
        decoded = workspace.from_dict(json.loads(payload))
        if workspace.content_hash(problem) != workspace.content_hash(decoded):
            out.append(
                Divergence(
                    "roundtrip", i, "content hash changed across JSON round-trip"
                )
            )
        c = compile_problem(problem)
        bad = _arrays_equal(c, compile_problem(decoded))
        if bad:
            out.append(
                Divergence(
                    "roundtrip", i, f"compiled field {bad!r} changed across round-trip"
                )
            )
        compiled.append(c)

    # -- references ----------------------------------------------------
    refs = []
    for i, c in zip(indices, compiled):
        ref = reference_readings(c)
        ref["mc"], ref["acc"] = reference_monte_carlo(
            c, method, simulations, _mc_seed(spec, i), mode
        )
        refs.append(ref)

    # -- stacked oracles -----------------------------------------------
    for stack in stack_problems(compiled):
        sev = StackedEvaluator(stack)
        mins = sev.minimum_utilities()
        avgs = sev.average_utilities()
        maxs = sev.maximum_utilities()
        orders = sev.ranking_orders()
        seeds = [_mc_seed(spec, indices[pos]) for pos in stack.source_indices]
        mc, acc = sev.monte_carlo_ranks(
            method=method,
            n_simulations=simulations,
            seed=seeds,
            sample_utilities=mode,
        )
        for pos, src in enumerate(stack.source_indices):
            i, ref = indices[src], refs[src]
            checks += 2
            for label, got, want in (
                ("minimum utilities", mins[pos], ref["min"]),
                ("average utilities", avgs[pos], ref["avg"]),
                ("maximum utilities", maxs[pos], ref["max"]),
                ("ranking order", orders[pos], ref["order"]),
            ):
                if not np.array_equal(got, want):
                    out.append(
                        Divergence(
                            "stacked-eval",
                            i,
                            f"{label} diverge from the reference",
                        )
                    )
            if not np.array_equal(mc[pos], ref["mc"]) or acc[pos] != ref["acc"]:
                out.append(
                    Divergence(
                        "stacked-mc",
                        i,
                        f"Monte Carlo ranks diverge (method={method}, "
                        f"sample_utilities={mode!r})",
                    )
                )

        # -- dominance / rank intervals vs the per-pair HiGHS oracle ---
        checks += stack.n_problems
        matrices = sev.dominance_matrices()
        intervals = sev.rank_intervals_all()
        for pos, src in enumerate(stack.source_indices):
            i, member = indices[src], stack.members[pos]
            oracle = dominance_oracle(member)
            if not np.array_equal(matrices[pos], oracle):
                out.append(
                    Divergence(
                        "dominance",
                        i,
                        "stacked dominance matrix diverges from the HiGHS oracle",
                    )
                )
            elif intervals[pos] != rank_intervals(member, matrix=oracle):
                out.append(
                    Divergence(
                        "dominance", i, "stacked rank intervals diverge"
                    )
                )

    # -- delta oracle ---------------------------------------------------
    for i, problem, c in zip(indices, problems, compiled):
        checks += 1
        edited, changed_rows = _mutate(spec, i, problem)
        patched = delta_compile(c, edited, changed_rows)
        fresh = compile_problem(edited)
        bad = _arrays_equal(patched, fresh)
        if bad:
            out.append(
                Divergence(
                    "delta",
                    i,
                    f"delta_compile field {bad!r} differs from full recompile",
                )
            )
            continue
        if BatchEvaluator(patched).evaluate() != BatchEvaluator(fresh).evaluate():
            out.append(
                Divergence("delta", i, "delta evaluation differs from recompile")
            )

    # -- group oracle ---------------------------------------------------
    rosters, expected = [], []
    for i, problem in zip(indices, problems):
        mspec = _member_spec(spec, i, problem, members)
        roster_members = members_from_spec(mspec, problem.hierarchy)
        rosters.append(compile_roster(roster_members, problem.hierarchy))
        expected.append(reference_group_result(problem, roster_members))

    for stack in stack_problems(compiled):
        stacked_roster = StackedRoster(
            [rosters[pos] for pos in stack.source_indices]
        )
        results = StackedEvaluator(stack).group_results(stacked_roster)
        for pos, src in enumerate(stack.source_indices):
            single = BatchEvaluator(stack.members[pos]).group_result(rosters[src])
            for want, label in (
                (expected[src], "the recompiling reference"),
                (single, "the one-member stack"),
            ):
                checks += 1
                if results[pos] != want:
                    detail = f"stacked group result diverges from {label}"
                    out.append(Divergence("group", indices[src], detail))

    return out, checks


# ----------------------------------------------------------------------
# Shrinking and repro files
# ----------------------------------------------------------------------

def _reductions(spec: RegistrySpec) -> List[RegistrySpec]:
    """Candidate simpler specs, most aggressive first."""
    candidates = []

    def add(**overrides: object) -> None:
        try:
            reduced = spec.replace(**overrides)
        except ValueError:
            return
        if reduced != spec:
            candidates.append(reduced)

    alo, ahi = spec.alternatives
    if ahi > alo:
        add(alternatives=(alo, max(alo, ahi // 2)))
    add(depth=(1, 1))
    add(branching=(spec.branching[0], max(spec.branching[0], 2)))
    add(max_attributes=max(1, spec.max_attributes // 2))
    add(levels=(2, 2))
    if len(spec.scale_kinds) > 1:
        for kind in spec.scale_kinds:
            add(scale_kinds=(kind,))
    add(missing_rate=0.0)
    add(all_missing_row_rate=0.0)
    add(uncertain_rate=0.0)
    if spec.weight_style != "precise":
        add(weight_style="precise")
    if spec.utility_style != "precise":
        add(utility_style="precise")
    return candidates


def shrink_spec(
    spec: RegistrySpec,
    divergence: Divergence,
    chunk_indices: Sequence[int],
    simulations: int,
    members: int,
    max_rounds: int = 12,
) -> RegistrySpec:
    """Greedily simplify ``spec`` while the chunk still diverges.

    Each round tries the candidate reductions of :func:`_reductions`
    in order and keeps the first one under which re-running the failing
    chunk (same indices, same oracle family) still reports a
    divergence.  Stops when no reduction reproduces the failure.
    """
    current = spec
    for _ in range(max_rounds):
        for candidate in _reductions(current):
            try:
                found, _ = check_chunk(
                    candidate,
                    chunk_indices,
                    simulations=simulations,
                    members=members,
                )
            except Exception:
                # A reduction that crashes still reproduces a defect;
                # prefer it (the repro file captures the crash).
                current = candidate
                break
            if any(d.oracle == divergence.oracle for d in found):
                current = candidate
                break
        else:
            return current
    return current


def write_repro(
    directory: Path,
    spec: RegistrySpec,
    divergence: Divergence,
    chunk_indices: Sequence[int],
    simulations: int,
    members: int,
) -> Path:
    """Emit one replayable ``repro-fuzz/1`` JSON file; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": REPRO_FORMAT,
        "oracle": divergence.oracle,
        "case": divergence.case,
        "detail": divergence.detail,
        "chunk": list(int(i) for i in chunk_indices),
        "simulations": simulations,
        "members": members,
        "spec": spec.to_dict(),
    }
    path = directory / f"repro-{divergence.oracle}-{divergence.case:05d}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay(path: Path) -> List[Divergence]:
    """Re-run the chunk a repro file recorded; return surviving divergences."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"{path}: not a {REPRO_FORMAT} repro file "
            f"(format={payload.get('format')!r})"
        )
    spec = RegistrySpec.from_dict(payload["spec"])
    found, _ = check_chunk(
        spec,
        [int(i) for i in payload["chunk"]],
        simulations=int(payload.get("simulations", 24)),
        members=int(payload.get("members", 3)),
    )
    return found


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def run_fuzz(
    cases: int = 300,
    seed: int = 0,
    spec: Optional[RegistrySpec] = None,
    out_dir: Optional[Path] = None,
    simulations: int = 24,
    members: int = 3,
    chunk: int = 8,
    shrink: bool = True,
    max_repros: int = 5,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Differentially fuzz ``cases`` generated problems.

    ``spec`` defaults to the ``"fuzz"`` preset with ``seed`` and
    ``cases`` applied.  Divergences are shrunk (when ``shrink``) and
    written as repro files under ``out_dir`` (at most ``max_repros``).
    Deterministic end to end.
    """
    if spec is None:
        spec = genreg.preset("fuzz")
    spec = spec.replace(seed=seed, n_workspaces=max(cases, 1))
    report = FuzzReport(spec=spec, cases=cases)
    say = log or (lambda message: None)

    chunks = [
        list(range(start, min(start + chunk, cases)))
        for start in range(0, cases, chunk)
    ]
    for chunk_no, indices in enumerate(chunks):
        found, checks = check_chunk(
            spec, indices, simulations=simulations, members=members
        )
        report.n_checks += checks
        if found:
            say(
                f"chunk {chunk_no} (cases {indices[0]}..{indices[-1]}): "
                f"{len(found)} divergence(s)"
            )
        report.divergences.extend(found)

    emitted = set()
    for divergence in report.divergences:
        if out_dir is None or len(report.repro_files) >= max_repros:
            break
        key = (divergence.oracle, divergence.case // chunk)
        if key in emitted:
            continue
        emitted.add(key)
        chunk_indices = chunks[divergence.case // chunk]
        final = spec
        if shrink:
            say(f"shrinking case {divergence.case} ({divergence.oracle})")
            final = shrink_spec(
                spec, divergence, chunk_indices, simulations, members
            )
        report.repro_files.append(
            write_repro(
                out_dir, final, divergence, chunk_indices, simulations, members
            )
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone CLI driver (also backs ``repro fuzz``); exit 0 iff clean."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fuzz",
        description="Differentially fuzz the tensor engine against the "
        "independent reference.",
    )
    parser.add_argument("--cases", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="fuzz-repros", help="directory for repro files"
    )
    parser.add_argument("--simulations", type=int, default=24)
    parser.add_argument("--members", type=int, default=3)
    parser.add_argument("--chunk", type=int, default=8)
    parser.add_argument(
        "--preset", default="fuzz", choices=sorted(genreg.PRESETS)
    )
    parser.add_argument("--no-shrink", action="store_true")
    parser.add_argument(
        "--replay", metavar="FILE", default=None, help="re-run one repro file"
    )
    args = parser.parse_args(argv)

    if args.replay:
        found = replay(Path(args.replay))
        for divergence in found:
            print(
                f"DIVERGE [{divergence.oracle}] case {divergence.case}: "
                f"{divergence.detail}"
            )
        if found:
            print(f"replay: {len(found)} divergence(s) still present")
            return 1
        print("replay: clean (no divergence)")
        return 0

    report = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        spec=genreg.preset(args.preset),
        out_dir=Path(args.out),
        simulations=args.simulations,
        members=args.members,
        chunk=args.chunk,
        shrink=not args.no_shrink,
        log=print,
    )
    for divergence in report.divergences:
        print(
            f"DIVERGE [{divergence.oracle}] case {divergence.case}: "
            f"{divergence.detail}"
        )
    for path in report.repro_files:
        print(f"repro file: {path}")
    status = "clean" if report.ok else f"{len(report.divergences)} divergence(s)"
    print(
        f"fuzz: {report.cases} cases, {report.n_checks} checks, {status} "
        f"(seed {args.seed})"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

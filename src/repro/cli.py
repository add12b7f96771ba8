"""The ``repro`` command-line interface.

Subcommands map onto the paper's workflow:

* ``repro figure N`` — recompute paper figure N as text (1-10).
* ``repro rank [--objective NAME]`` — the Fig. 6 / Fig. 7 rankings.
* ``repro stability [--mode best|ranking]`` — Fig. 8.
* ``repro screen`` — §V non-dominance / potential optimality.
* ``repro simulate [--method M] [-n N] [--seed S]`` — §V Monte Carlo.
* ``repro pipeline [--query Q] [--threshold T]`` — the NeOn reuse
  pipeline over the synthetic multimedia corpus.
* ``repro workspace save/load`` — GMAA-style JSON workspaces.
* ``repro batch [WORKSPACE ...]`` — evaluate a whole registry of
  decision problems in one call through the vectorized batch engine
  (compile once per problem, array-program evaluation, optional
  Monte Carlo per problem).  ``--workers N`` engages the sharded
  runtime and, by default, the persistent registry index
  (``--no-cache`` / ``--refresh`` control it).
* ``repro index build|status|vacuum|doctor DIR`` — manage the sqlite
  registry index that caches batch results across runs; ``doctor``
  checks integrity, rebuilds a corrupted database and re-probes
  quarantined workspaces (see ``docs/robustness.md``).
* ``repro chaos --registry DIR --plan NAME`` — run a registry batch
  under deterministic fault injection (killed workers, failing
  artifact reads, a torn index) and assert the output is
  byte-identical to a clean run.
* ``repro group --registry DIR --members FILE`` — group-decision
  rankings for every workspace in a registry: each decision maker's
  ranking, consensus (interval intersection) and tolerant (hull)
  aggregations, Borda counts and disagreement, evaluated through the
  engine's members tensor axis (see ``docs/group.md``).  ``repro batch
  --group FILE`` rides the same axis inside a batch run.
* ``repro serve --registry DIR [--members FILE] [--mount NAME=DIR]
  [--auth-token TOKEN] [--warm-writes]`` — serve cached registry
  rankings (and group results) over the federated, versioned v1 HTTP
  API (the registry query service; see ``docs/service.md``).
* ``repro registry pull SRC DST`` — registry-to-registry sync:
  workspaces copy skip-if-present by content hash and their cached
  result sets travel through the index (idempotent).
* ``repro generate DIR [--preset NAME] [--seed S]`` — write a seeded,
  deterministic synthetic registry from a generator spec (see
  ``docs/generator.md``).
* ``repro fuzz --cases N --seed S`` — differentially fuzz the
  stacked/delta/group/Monte-Carlo tensor paths against the scalar
  reference; failing specs are shrunk and re-emitted as replayable
  JSON repro files.
* ``repro trace summarize FILE`` — per-stage wall-time totals of a
  Chrome trace-event file recorded with ``repro batch --trace FILE``
  (see ``docs/observability.md``); ``repro batch --stats`` prints the
  same breakdown inline without writing a file.

All subcommands operate on the built-in multimedia case study unless
``--workspace FILE`` points at a saved problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .casestudy.cqs import m3_competency_questions
from .casestudy.problem import multimedia_problem
from .core.model import AdditiveModel, evaluate
from .core.problem import DecisionProblem
from .core.workspace import load as load_workspace
from .core.workspace import save as save_workspace
from .reporting import figures
from .reporting.tables import render_table

__all__ = ["main", "build_parser"]


def _load_problem(path: Optional[str]) -> DecisionProblem:
    if path is None:
        return multimedia_problem()
    return load_workspace(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A MAUT Approach for Reusing Ontologies' "
            "(GMAA-style imprecise additive MAUT + NeOn reuse pipeline)."
        ),
    )
    parser.add_argument(
        "--workspace",
        metavar="FILE",
        help="operate on a saved workspace instead of the built-in case study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_figure = sub.add_parser("figure", help="recompute a paper figure")
    p_figure.add_argument("number", type=int, choices=range(1, 11))

    p_rank = sub.add_parser("rank", help="rank the alternatives")
    p_rank.add_argument(
        "--objective",
        default=None,
        help="rank by one objective node (default: overall)",
    )

    p_stab = sub.add_parser("stability", help="weight-stability intervals")
    p_stab.add_argument("--mode", choices=("best", "ranking"), default="best")

    sub.add_parser("screen", help="dominance / potential-optimality screening")

    sub.add_parser(
        "intervals",
        help="attainable-rank intervals under partial information",
    )

    p_sim = sub.add_parser("simulate", help="Monte Carlo sensitivity analysis")
    p_sim.add_argument(
        "--method",
        choices=("random", "rank_order", "intervals"),
        default="intervals",
    )
    p_sim.add_argument("-n", "--simulations", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=figures.MC_SEED)

    p_pipe = sub.add_parser("pipeline", help="run the NeOn reuse pipeline")
    p_pipe.add_argument("--query", default="multimedia ontology")
    p_pipe.add_argument("--threshold", type=float, default=0.70)
    p_pipe.add_argument(
        "--screen", action="store_true", help="also run the §V screening"
    )

    p_save = sub.add_parser("workspace", help="save / inspect workspaces")
    p_save.add_argument("action", choices=("save", "show"))
    p_save.add_argument("path", nargs="?", help="target file for 'save'")

    p_batch = sub.add_parser(
        "batch",
        help="evaluate many decision problems in one call (batch engine)",
    )
    p_batch.add_argument(
        "workspaces",
        nargs="*",
        metavar="WORKSPACE",
        help=(
            "workspace JSON files or registry directories (expanded "
            "to their *.json files) to evaluate; defaults to the "
            "built-in multimedia case study"
        ),
    )
    p_batch.add_argument(
        "--objectives",
        action="store_true",
        help="also rank each problem by its top-level objectives (Fig. 7)",
    )
    p_batch.add_argument(
        "--simulate",
        type=int,
        default=0,
        metavar="N",
        help="additionally run an N-simulation Monte Carlo per problem",
    )
    p_batch.add_argument(
        "--method",
        choices=("random", "rank_order", "intervals"),
        default="intervals",
        help="Monte Carlo simulation class for --simulate",
    )
    p_batch.add_argument("--seed", type=int, default=figures.MC_SEED)
    p_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "evaluate the registry through the sharded runtime: stack "
            "same-shape problems, run shards across N processes (1 = "
            "in-process, same merged output), mmap-load persisted "
            "compiled artifacts"
        ),
    )
    p_batch.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="with --workers: skip the .npz compiled-artifact cache",
    )
    p_batch.add_argument(
        "--index",
        metavar="FILE",
        default=None,
        dest="index_path",
        help=(
            "registry index database for cross-run result caching "
            "(default: .repro-index.sqlite in the registry's common "
            "directory); implies the sharded runtime"
        ),
    )
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "skip the persistent registry index entirely: re-evaluate "
            "every workspace and leave the index untouched"
        ),
    )
    p_batch.add_argument(
        "--refresh",
        action="store_true",
        help=(
            "re-evaluate every workspace and overwrite its cached "
            "results in the registry index; implies the sharded runtime"
        ),
    )
    p_batch.add_argument(
        "--group",
        metavar="FILE",
        default=None,
        dest="members_path",
        help=(
            "repro-members/1 roster file: additionally compute each "
            "workspace's group-decision result (consensus/Borda) over "
            "the members tensor axis; implies the sharded runtime"
        ),
    )
    p_batch.add_argument(
        "--follow",
        action="store_true",
        help=(
            "watch the registry: re-poll the workspace files (or "
            "directories, re-expanded every cycle) each --interval "
            "seconds, incrementally re-evaluate only what changed, and "
            "print one delta report per cycle; implies the sharded "
            "runtime and the registry index"
        ),
    )
    p_batch.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="with --follow: seconds between polling cycles (default: 1.0)",
    )
    p_batch.add_argument(
        "--cycles",
        type=int,
        default=None,
        metavar="N",
        help="with --follow: stop after N cycles (default: until Ctrl-C)",
    )
    p_batch.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        dest="trace_path",
        help=(
            "record a span trace of the run (workspace load/compile, "
            "eval stages, index probe/commit, worker chunks) and write "
            "it as a Chrome trace-event JSON file viewable in Perfetto "
            "or chrome://tracing; implies the sharded runtime"
        ),
    )
    p_batch.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print a per-stage wall-time breakdown after the table "
            "(with --follow: one stage line per cycle); implies the "
            "sharded runtime"
        ),
    )

    p_trace = sub.add_parser(
        "trace",
        help="inspect Chrome trace files written by batch --trace",
    )
    p_trace.add_argument("action", choices=("summarize",))
    p_trace.add_argument("file", help="Chrome trace-event JSON file")

    p_group = sub.add_parser(
        "group",
        help="group-decision rankings over a registry (members axis)",
    )
    p_group.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="registry directory (workspace *.json files, scanned recursively)",
    )
    p_group.add_argument(
        "--members",
        required=True,
        metavar="FILE",
        dest="members_path",
        help="repro-members/1 roster file (one entry per decision maker)",
    )
    p_group.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sharded runtime (default: 1)",
    )
    p_group.add_argument(
        "--index",
        metavar="FILE",
        default=None,
        dest="index_path",
        help=(
            "registry index database for cross-run result caching "
            "(default: .repro-index.sqlite in the registry directory)"
        ),
    )
    p_group.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the persistent registry index entirely",
    )
    p_group.add_argument(
        "--refresh",
        action="store_true",
        help="re-evaluate everything and overwrite cached group results",
    )

    p_index = sub.add_parser(
        "index",
        help="manage the persistent registry index (sqlite result cache)",
    )
    p_index.add_argument(
        "action", choices=("build", "status", "vacuum", "doctor")
    )
    p_index.add_argument(
        "registry",
        help="registry directory (workspace *.json files, scanned recursively)",
    )
    p_index.add_argument(
        "--index",
        metavar="FILE",
        default=None,
        dest="index_path",
        help="index database (default: <registry>/.repro-index.sqlite)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve cached registry rankings over HTTP (query service)",
    )
    p_serve.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="registry directory of workspace *.json files to serve",
    )
    p_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="port to bind; 0 picks an ephemeral port (default: 8321)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=8,
        metavar="K",
        help="maximum concurrent request threads (default: 8)",
    )
    p_serve.add_argument(
        "--index",
        metavar="FILE",
        default=None,
        dest="index_path",
        help="registry index database "
        "(default: <registry>/.repro-index.sqlite)",
    )
    p_serve.add_argument(
        "--members",
        metavar="FILE",
        default=None,
        dest="members_path",
        help=(
            "repro-members/1 roster file enabling "
            "GET /v1/workspaces/{id}/group"
        ),
    )
    p_serve.add_argument(
        "--mount",
        action="append",
        default=None,
        metavar="NAME=DIR",
        dest="mounts",
        help=(
            "mount an additional named registry (repeatable); the "
            "--registry directory mounts as 'default'"
        ),
    )
    p_serve.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        dest="auth_token",
        help=(
            "require 'Authorization: Bearer TOKEN' on every non-public "
            "route (default: no auth)"
        ),
    )
    p_serve.add_argument(
        "--warm-writes",
        action="store_true",
        dest="warm_writes",
        help=(
            "pre-evaluate edited workspaces in the background so the "
            "next read is already warm"
        ),
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress the access log"
    )

    p_registry = sub.add_parser(
        "registry",
        help="federated registry operations (registry-to-registry sync)",
    )
    registry_sub = p_registry.add_subparsers(
        dest="registry_command", required=True
    )
    p_pull = registry_sub.add_parser(
        "pull",
        help=(
            "sync workspaces + cached results from one registry into "
            "another (skip-if-present by content hash; idempotent)"
        ),
    )
    p_pull.add_argument("src", help="source registry directory")
    p_pull.add_argument("dst", help="destination registry directory")
    p_pull.add_argument(
        "--src-index",
        metavar="FILE",
        default=None,
        dest="src_index",
        help="source index database (default: <src>/.repro-index.sqlite)",
    )
    p_pull.add_argument(
        "--dst-index",
        metavar="FILE",
        default=None,
        dest="dst_index",
        help="destination index database (default: <dst>/.repro-index.sqlite)",
    )

    from .core.faults import DEFAULT_SEED as _FAULT_SEED
    from .core.faults import PLAN_NAMES as _PLAN_NAMES

    p_chaos = sub.add_parser(
        "chaos",
        help="run a registry batch under fault injection and verify output",
    )
    p_chaos.add_argument(
        "--registry",
        required=True,
        metavar="DIR",
        help="registry directory of workspace *.json files to evaluate",
    )
    p_chaos.add_argument(
        "--plan",
        choices=_PLAN_NAMES,
        default="worker-kill",
        help="named fault plan to inject (default: worker-kill)",
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=_FAULT_SEED,
        help=f"fault-plan seed (default: {_FAULT_SEED})",
    )
    p_chaos.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker processes for both runs (default: 4)",
    )
    p_chaos.add_argument(
        "--simulate",
        type=int,
        default=0,
        metavar="N",
        help="also run N Monte Carlo simulations per workspace",
    )

    p_corpus = sub.add_parser(
        "corpus", help="export the synthetic multimedia corpus to disk"
    )
    p_corpus.add_argument("directory", help="target directory")
    p_corpus.add_argument(
        "--format",
        choices=(".ttl", ".nt", ".rdf", ".owl"),
        default=".ttl",
        dest="fmt",
    )

    from .core.genreg import PRESETS as _GEN_PRESETS

    p_gen = sub.add_parser(
        "generate",
        help="generate a synthetic workspace registry (seeded, deterministic)",
    )
    p_gen.add_argument("directory", help="target registry directory")
    p_gen.add_argument(
        "--preset",
        default="default",
        choices=sorted(_GEN_PRESETS),
        help="named generator preset (default: default)",
    )
    p_gen.add_argument(
        "--spec",
        metavar="FILE",
        default=None,
        dest="spec_path",
        help="repro-genspec/1 spec file (overrides --preset)",
    )
    p_gen.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    p_gen.add_argument(
        "--cases",
        type=int,
        default=None,
        help="override the spec's workspace count",
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the tensor paths against the scalar "
        "reference",
    )
    p_fuzz.add_argument(
        "--cases", type=int, default=300, help="generated problems to check"
    )
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--out",
        metavar="DIR",
        default="fuzz-repros",
        help="directory for repro files (default: fuzz-repros)",
    )
    p_fuzz.add_argument(
        "--preset",
        default="fuzz",
        choices=sorted(_GEN_PRESETS),
        help="generator preset to draw cases from (default: fuzz)",
    )
    p_fuzz.add_argument(
        "--simulations",
        type=int,
        default=24,
        help="Monte Carlo simulations per case (default: 24)",
    )
    p_fuzz.add_argument(
        "--members",
        type=int,
        default=3,
        help="group-roster members per case (default: 3)",
    )
    p_fuzz.add_argument(
        "--chunk",
        type=int,
        default=8,
        help="cases stacked together per chunk (default: 8)",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit failing specs without greedy reduction",
    )
    p_fuzz.add_argument(
        "--replay",
        metavar="FILE",
        default=None,
        dest="replay_path",
        help="re-run one repro-fuzz/1 file instead of fuzzing",
    )

    return parser


def _cmd_figure(problem: DecisionProblem, number: int) -> str:
    renderer = getattr(figures, f"figure_{number}")
    return renderer(problem)


def _cmd_rank(problem: DecisionProblem, objective: Optional[str]) -> str:
    evaluation = evaluate(problem, objective)
    rows = [
        [row.rank, row.name, row.minimum, row.average, row.maximum]
        for row in evaluation
    ]
    return render_table(
        ["rank", "alternative", "min", "avg", "max"],
        rows,
        align_left=[False, True, False, False, False],
    )


def _cmd_simulate(
    problem: DecisionProblem, method: str, n: int, seed: int
) -> str:
    from .core.montecarlo import simulate

    result = simulate(
        problem,
        method=method,
        n_simulations=n,
        seed=seed,
        sample_utilities="missing",
    )
    header = (
        f"method={method}  simulations={result.n_simulations}  seed={seed}\n"
        f"ever ranked first: {', '.join(result.ever_best())}\n"
    )
    return header + "\n" + figures.figure_10(problem, result)


def _cmd_batch(
    workspaces: Sequence[str],
    objectives: bool,
    simulations: int,
    method: str,
    seed: int,
) -> "tuple[str, int]":
    """Evaluate a registry of problems through the batch engine.

    Every problem is compiled once (through the workspace LRU compile
    cache) and all downstream numbers — the Fig. 6-style ranking and
    the optional per-problem Monte Carlo — come out of the engine's
    stacked kernels through the one-problem
    :class:`~repro.core.engine.BatchEvaluator` view.
    """
    from .core.engine import BatchEvaluator
    from .core.runtime import expand_registry_source
    from .core.workspace import (
        compile_cache_info,
        compile_cached,
        load_compiled,
    )

    compiled_problems = []
    skipped = []
    if workspaces:
        for path in expand_registry_source(workspaces):
            try:
                compiled_problems.append(load_compiled(path))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                skipped.append((path, f"{type(exc).__name__}: {exc}"))
    else:
        compiled_problems.append(compile_cached(multimedia_problem()))
    if objectives:
        expanded = []
        for compiled in compiled_problems:
            expanded.append(compiled)
            for child in compiled.problem.hierarchy.root.children:
                expanded.append(
                    compile_cached(compiled.problem.restricted_to(child.name))
                )
        compiled_problems = expanded

    headers, align = _batch_table_spec(simulations)
    rows = []
    for compiled in compiled_problems:
        evaluator = BatchEvaluator(compiled)
        best = evaluator.evaluate().best
        mc = None
        if simulations:
            result = evaluator.simulate(
                method=method,
                n_simulations=simulations,
                seed=seed,
                sample_utilities="missing",
            )
            mc = (
                len(result.ever_best()),
                result.max_fluctuation(result.top_k_by_mean(5)),
            )
        rows.append(
            _batch_row(
                compiled.name,
                evaluator.n_alternatives,
                evaluator.n_attributes,
                best.name,
                best.average,
                best.minimum,
                best.maximum,
                mc,
            )
        )
    info = compile_cache_info()
    footer = _batch_footer(
        len(compiled_problems),
        simulations,
        method,
        skipped,
        extra=f"; compile cache: {info['hits']} hits, {info['misses']} misses",
    )
    return (
        render_table(headers, rows, align_left=align) + footer,
        _batch_exit_code(len(compiled_problems), skipped),
    )


# The sequential and sharded batch paths must render byte-identical
# tables for identical inputs (pinned by tests), so the table shape,
# row formatting and footer live in exactly one place.

def _batch_table_spec(simulations: int, group: bool = False):
    """(headers, align) of the batch table, +MC/group columns as needed."""
    headers = ["problem", "alts", "attrs", "best", "avg", "min", "max"]
    align = [True, False, False, True, False, False, False]
    if simulations:
        headers += ["ever best", "top-5 fluct"]
        align += [False, False]
    if group:
        headers += ["group best", "borda best"]
        align += [True, True]
    return headers, align


def _batch_row(
    name: str,
    n_alternatives: int,
    n_attributes: int,
    best_name: str,
    average: float,
    minimum: float,
    maximum: float,
    mc=None,
    group=None,
):
    """One batch-table row; ``mc`` is (ever_best, top5_fluctuation),
    ``group`` is (group_best, borda_best)."""
    row = [
        name,
        n_alternatives,
        n_attributes,
        best_name,
        f"{average:.4f}",
        f"{minimum:.4f}",
        f"{maximum:.4f}",
    ]
    if mc is not None:
        row += list(mc)
    if group is not None:
        row += list(group)
    return row


def _group_cells(result) -> tuple:
    """(group best, borda best) cells from one parsed GroupResult.

    The group best falls back to the tolerant (hull) ranking when the
    members' intervals are disjoint on some objective; the cell marks
    that fallback so genuine consensus stays distinguishable.
    """
    best = result.best
    if result.consensus is None:
        best += " (no consensus)"
    return (best, result.borda[0])


def _batch_footer(
    n_problems: int,
    simulations: int,
    method: str,
    skipped,
    extra: str = "",
) -> str:
    return (
        f"\nevaluated {n_problems} problem(s)"
        + (f", {simulations} simulations each ({method})" if simulations else "")
        + extra
        + _skipped_footer(skipped)
    )


def _batch_exit_code(n_evaluated: int, skipped) -> int:
    """Nonzero when a batch run produced no results at all.

    Individual unreadable workspaces are reported and skipped, but a
    run where *every* input was unreadable must not look like success
    to automation.
    """
    return 1 if skipped and n_evaluated == 0 else 0


def _skipped_footer(skipped) -> str:
    """The report-and-skip lines for unreadable registry entries."""
    if not skipped:
        return ""
    lines = [f"\nskipped {len(skipped)} unreadable workspace(s):"]
    lines += [f"\n  {path}: {error}" for path, error in skipped]
    return "".join(lines)


def _open_registry_index(
    workspaces: Sequence[str], index_path: Optional[str]
):
    """The registry index for a batch/group run, or ``None`` + warning.

    An unusable index (read-only registry, foreign schema, mixed
    roots) must never block evaluation: fall back to an uncached run,
    with the same byte-identical stdout.
    """
    import sqlite3

    from .core.index import RegistryIndex, default_index_path

    try:
        db_path = (
            Path(index_path) if index_path else default_index_path(workspaces)
        )
        return RegistryIndex(db_path)
    except (OSError, ValueError, sqlite3.Error) as exc:
        print(
            f"warning: registry index unavailable "
            f"({type(exc).__name__}: {exc}); evaluating without "
            f"cross-run cache",
            file=sys.stderr,
        )
        return None


def _run_sharded(runner, workspaces, index, refresh):
    """One sharded run, with or without the persistent index."""
    if index is not None:
        with index:
            return runner.run(workspaces, index=index, refresh=refresh)
    return runner.run(workspaces)


def _cmd_batch_sharded(
    workspaces: Sequence[str],
    objectives: bool,
    simulations: int,
    method: str,
    seed: int,
    workers: int,
    use_disk_cache: bool,
    index_path: Optional[str] = None,
    use_index: bool = True,
    refresh: bool = False,
    group_spec=None,
    trace_path: Optional[str] = None,
    stats: bool = False,
) -> "tuple[str, int]":
    """``repro batch --workers N``: the sharded multi-problem runtime.

    Same table as the sequential path, computed through
    :class:`~repro.core.runtime.ShardedRunner`: same-shape problems
    stack into one tensor program, shards run across processes, and
    compiled arrays mmap-load from the ``.npz`` artifacts.  Unless
    ``--no-cache`` was given, the run consults the persistent registry
    index first — unchanged workspaces with cached results for this
    configuration skip evaluation entirely.  The merged output is
    byte-identical for any worker count and any cache state.  With
    ``--group`` every row additionally reports the roster's group best
    and Borda best, evaluated over the members tensor axis.  With
    ``--trace``/``--stats`` the run is recorded through
    :mod:`repro.obs.trace` — worker-side spans included — and exported
    as a Chrome trace file / per-stage breakdown; tracing never
    changes the table.
    """
    import json as _json

    from .core.engine import GroupResult
    from .core.runtime import BatchOptions, ShardedRunner

    runner = ShardedRunner(
        workers=workers,
        options=BatchOptions(
            objectives=objectives,
            simulations=simulations,
            method=method,
            seed=seed,
            use_disk_cache=use_disk_cache,
            group=group_spec,
        ),
    )
    index = _open_registry_index(workspaces, index_path) if use_index else None
    tracer = None
    if trace_path or stats:
        from .obs import trace as obs_trace

        tracer = obs_trace.Tracer()
        obs_trace.install(tracer)
    try:
        report = _run_sharded(runner, workspaces, index, refresh)
    finally:
        if tracer is not None:
            from .obs import trace as obs_trace

            obs_trace.uninstall()
    if tracer is not None and trace_path:
        from .obs.trace import write_chrome_trace

        write_chrome_trace(tracer.spans(), trace_path)
        print(
            f"wrote {len(tracer)} span(s) to {trace_path} "
            f"(open in Perfetto or chrome://tracing)",
            file=sys.stderr,
        )

    group = group_spec is not None
    headers, align = _batch_table_spec(simulations, group)
    rows = [
        _batch_row(
            result.name,
            result.n_alternatives,
            result.n_attributes,
            result.best_name,
            result.best_average,
            result.best_minimum,
            result.best_maximum,
            (result.ever_best, result.top5_fluctuation)
            if simulations
            else None,
            _group_cells(GroupResult.from_payload(_json.loads(result.group_json)))
            if group
            else None,
        )
        for result in report.results
    ]
    footer = _batch_footer(
        report.n_evaluated,
        simulations,
        method,
        [(s.path, s.error) for s in report.skipped],
    )
    if stats:
        footer += _stats_footer(report.stage_seconds)
    return (
        render_table(headers, rows, align_left=align) + footer,
        _batch_exit_code(report.n_evaluated, report.skipped),
    )


def _stats_footer(stage_seconds) -> str:
    """The ``--stats`` per-stage wall-time block under the batch table."""
    if not stage_seconds:
        return "\n\nno stage timings recorded"
    rows = [
        [name, f"{seconds:.3f}"]
        for name, seconds in sorted(stage_seconds, key=lambda kv: -kv[1])
    ]
    return "\n\nstage breakdown (wall seconds, workers included):\n" + render_table(
        ["stage", "seconds"], rows, align_left=[True, False]
    )


def _cmd_trace_summarize(path: str) -> str:
    """``repro trace summarize``: per-stage totals of a trace file."""
    from .obs.trace import summarize

    try:
        summary = summarize(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot summarize {path}: {exc}") from exc
    if not summary:
        return f"{path}: no trace events"
    rows = [
        [
            row["name"],
            row["count"],
            f"{row['total_ms']:.3f}",
            f"{row['mean_ms']:.3f}",
            f"{row['max_ms']:.3f}",
        ]
        for row in summary
    ]
    return render_table(
        ["span", "count", "total ms", "mean ms", "max ms"],
        rows,
        align_left=[True, False, False, False, False],
    )


def _cmd_batch_follow(
    sources: Sequence[str],
    objectives: bool,
    simulations: int,
    method: str,
    seed: int,
    workers: int,
    use_disk_cache: bool,
    index_path: Optional[str],
    interval: float,
    cycles: Optional[int],
    group_spec=None,
    stats: bool = False,
) -> int:
    """``repro batch --follow``: keep a registry continuously evaluated.

    Wraps :meth:`~repro.core.runtime.ShardedRunner.watch`: each cycle
    re-expands the sources (so files created, renamed or deleted
    between cycles are noticed), classifies every unchanged workspace
    with one ``stat`` against the registry index, absorbs edits through
    delta compilation where the problem structure held, and prints one
    delta report line per cycle.  Runs until interrupted unless
    ``--cycles`` bounds it.  With ``--stats`` each cycle runs under a
    fresh tracer and its report line is followed by one line of
    per-stage wall seconds.
    """
    from .core.index import DEFAULT_INDEX_FILENAME
    from .core.runtime import (
        BatchOptions,
        ShardedRunner,
        WatchCycle,
        expand_registry_source,
    )

    runner = ShardedRunner(
        workers=workers,
        options=BatchOptions(
            objectives=objectives,
            simulations=simulations,
            method=method,
            seed=seed,
            use_disk_cache=use_disk_cache,
            group=group_spec,
        ),
    )
    # Anchor the default index location before the first cycle: an
    # empty registry directory is a legitimate watch target (files
    # appear later), so fall back to the directory itself.
    anchors = expand_registry_source(list(sources)) or [
        str(Path(src) / DEFAULT_INDEX_FILENAME)
        for src in sources
        if Path(src).is_dir()
    ]
    index = _open_registry_index(anchors, index_path) if anchors else None
    if index is None:
        raise SystemExit(
            "batch --follow needs a usable registry index to detect "
            "changes between cycles"
        )

    from .obs import trace as obs_trace

    def _report(cycle: WatchCycle) -> None:
        print(
            f"cycle {cycle.cycle}: {cycle.n_paths} workspace(s): "
            f"{cycle.n_evaluated} evaluated ({cycle.n_delta} delta), "
            f"{cycle.n_cached} cached, {cycle.n_skipped} skipped",
            flush=True,
        )
        if stats:
            stages = sorted(
                cycle.report.stage_seconds, key=lambda kv: (-kv[1], kv[0])
            )
            print(
                f"cycle {cycle.cycle} stages: "
                + (
                    ", ".join(f"{name} {secs:.3f}s" for name, secs in stages)
                    or "none recorded"
                ),
                flush=True,
            )
            # a fresh tracer per cycle keeps a long follow's memory flat
            obs_trace.install(obs_trace.Tracer())

    if stats:
        obs_trace.install(obs_trace.Tracer())
    try:
        with index:
            runner.watch(
                list(sources),
                index,
                interval=interval,
                max_cycles=cycles,
                on_cycle=_report,
            )
    except KeyboardInterrupt:
        print("stopped", flush=True)
    finally:
        if stats:
            obs_trace.uninstall()
    return 0


def _registry_workspaces(registry: str, index_path: Optional[str]) -> list:
    """Every workspace JSON under a registry directory, sorted.

    The index database (and its default filename anywhere under the
    tree) is excluded — it is a sibling file, not a workspace.
    """
    from .core.index import DEFAULT_INDEX_FILENAME

    root = Path(registry)
    if not root.is_dir():
        raise SystemExit(f"not a registry directory: {registry}")
    db_path = (
        Path(index_path).resolve()
        if index_path
        else (root / DEFAULT_INDEX_FILENAME).resolve()
    )
    return sorted(
        str(p) for p in root.rglob("*.json") if p.resolve() != db_path
    )


def _cmd_group(
    registry: str,
    members_path: str,
    workers: Optional[int],
    index_path: Optional[str],
    use_index: bool,
    refresh: bool,
) -> "tuple[str, int]":
    """``repro group``: group-decision rankings for a whole registry.

    Resolves the roster file against every workspace's hierarchy and
    evaluates the registry through the engine's members tensor axis —
    per-member rankings, consensus/tolerant aggregations, Borda counts
    and disagreement in one stacked array program per shard.  Results
    cache in the registry index under the workspace content hash × the
    roster digest, so re-runs with an unchanged roster are pure cache
    reads.
    """
    import json as _json

    from .core.engine import GroupResult
    from .core.group import load_members
    from .core.runtime import BatchOptions, ShardedRunner

    try:
        spec = load_members(members_path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load members file: {exc}") from exc
    workspaces = _registry_workspaces(registry, index_path)
    if not workspaces:
        raise SystemExit(f"no workspace JSON files under {registry}")

    runner = ShardedRunner(
        workers=workers if workers is not None else 1,
        options=BatchOptions(group=spec),
    )
    index = _open_registry_index(workspaces, index_path) if use_index else None
    report = _run_sharded(runner, workspaces, index, refresh)

    headers = [
        "problem",
        "alts",
        "members",
        "group best",
        "consensus best",
        "borda best",
        "max disagree",
    ]
    align = [True, False, False, True, True, True, False]
    rows = []
    for result in report.results:
        group = GroupResult.from_payload(_json.loads(result.group_json))
        if group.consensus:
            consensus_cell = group.consensus[0]
        elif group.disjoint:
            consensus_cell = "(disjoint)"
        else:
            # degenerate intersection (no consensus system exists even
            # though no single objective's intervals are disjoint)
            consensus_cell = "(none)"
        rows.append(
            [
                result.name,
                result.n_alternatives,
                group.n_members,
                group.best,
                consensus_cell,
                group.borda[0],
                f"{group.max_disagreement:.3f}",
            ]
        )
    n_members = len(spec)
    footer = (
        f"\nevaluated {report.n_evaluated} workspace(s) under "
        f"{n_members} member(s)"
        + (f"; {report.n_cached} served from cache" if report.n_cached else "")
        + _skipped_footer([(s.path, s.error) for s in report.skipped])
    )
    return (
        render_table(headers, rows, align_left=align) + footer,
        _batch_exit_code(report.n_evaluated, report.skipped),
    )


def _cmd_index(action: str, registry: str, index_path: Optional[str]) -> str:
    """``repro index build|status|vacuum|doctor``: index maintenance.

    ``build`` fingerprints every workspace JSON under the registry
    directory (recursively) and warms missing/stale ``.npz`` compiled
    artifacts; ``status`` reports row counts, freshness, quarantine
    and any past corruption rebuild; ``vacuum`` drops rows for deleted
    files and results whose content no longer exists, then compacts
    the database; ``doctor`` checks integrity (rebuilding a corrupted
    database from scratch), rebuilds the workspace fingerprints,
    re-probes quarantined workspaces and releases the ones that parse
    again, and sweeps stray temp artifacts.
    """
    from .core.index import DEFAULT_INDEX_FILENAME, RegistryIndex

    root = Path(registry)
    if not root.is_dir():
        raise SystemExit(f"not a registry directory: {registry}")
    db_path = Path(index_path) if index_path else root / DEFAULT_INDEX_FILENAME
    if action != "build" and not db_path.is_file():
        # status/vacuum are read/maintenance verbs: opening would
        # silently create an empty database (+ WAL side files).
        raise SystemExit(
            f"no registry index at {db_path} (run `repro index build` first)"
        )
    with RegistryIndex(db_path) as index:
        if action == "build":
            paths = _registry_workspaces(registry, index_path)
            counts = index.build(paths)
            return (
                f"indexed {sum(counts.values()) - counts['error']} "
                f"workspace(s) into {db_path}\n"
                f"  unchanged: {counts['fresh'] + counts['touched']}"
                f"  changed: {counts['changed']}  new: {counts['new']}"
                f"  unreadable: {counts['error']}"
            )
        if action == "status":
            info = index.status()
            text = (
                f"index {info['db_path']} ({info['db_bytes']} bytes)\n"
                f"  workspaces : {info['n_workspaces']} "
                f"({info['fresh']} fresh, {info['stale']} stale, "
                f"{info['missing']} missing)\n"
                f"  results    : {info['n_result_rows']} row(s) in "
                f"{info['n_result_sets']} set(s) across "
                f"{info['n_configs']} configuration(s), "
                f"{info['result_bytes']} cached byte(s)\n"
                f"  quarantine : {info['n_quarantined']} workspace(s)"
            )
            if info["last_rebuild_ns"] is not None:
                from datetime import datetime, timezone

                stamp = datetime.fromtimestamp(
                    info["last_rebuild_ns"] / 1e9, tz=timezone.utc
                ).isoformat(timespec="seconds")
                text += (
                    f"\n  rebuilt    : {stamp} "
                    f"({info['rebuild_reason'] or 'unknown reason'})"
                )
            return text
        if action == "doctor":
            paths = _registry_workspaces(registry, index_path)
            report = index.doctor(paths)
            counts = report["build_counts"]
            lines = [
                f"doctor {db_path}",
                "  integrity  : "
                + (
                    "ok"
                    if report["integrity_ok"]
                    else "CORRUPT — rebuilt from scratch "
                    "(old file kept as .corrupt)"
                ),
                f"  workspaces : {sum(counts.values()) - counts['error']} "
                f"indexed ({counts['error']} unreadable)",
                f"  quarantine : {len(report['released'])} released, "
                f"{len(report['held'])} still held",
                f"  temp files : {report['temp_artifacts_removed']} "
                f"stray artifact(s) swept",
            ]
            lines += [f"    released {path}" for path in report["released"]]
            lines += [f"    held     {path}" for path in report["held"]]
            return "\n".join(lines)
        removed = index.vacuum()
        return (
            f"vacuumed {db_path}: removed {removed['workspaces_removed']} "
            f"workspace row(s), {removed['result_rows_removed']} "
            f"result row(s) and {removed['temp_artifacts_removed']} "
            f"stray temp artifact(s)"
        )


def _cmd_chaos(
    registry: str,
    plan_name: str,
    seed: int,
    workers: int,
    simulations: int,
) -> "tuple[str, int]":
    """``repro chaos``: prove fault recovery changes no output byte.

    Evaluates every workspace in the registry twice — once clean, once
    under the named fault plan (workers hard-killed mid-chunk, failing
    artifact reads, a physically corrupted index, ...) — renders both
    through the standard batch table, and compares the outputs.  Exit
    status 0 means the runtime absorbed every injected fault without
    changing a single byte; 1 means the outputs diverged (both tables
    are printed for diffing).
    """
    import tempfile
    from dataclasses import replace

    from .core import faults as _faults
    from .core.runtime import BatchOptions, RetryPolicy, ShardedRunner

    plan = _faults.named_plan(plan_name, seed=seed)
    workspaces = _registry_workspaces(registry, None)
    if not workspaces:
        raise SystemExit(f"no workspace *.json files under {registry}")
    options = BatchOptions(simulations=simulations)

    def _render(report) -> str:
        headers, align = _batch_table_spec(simulations, False)
        rows = [
            _batch_row(
                r.name,
                r.n_alternatives,
                r.n_attributes,
                r.best_name,
                r.best_average,
                r.best_minimum,
                r.best_maximum,
                (r.ever_best, r.top5_fluctuation) if simulations else None,
                None,
            )
            for r in report.results
        ]
        return render_table(headers, rows, align_left=align)

    clean = ShardedRunner(workers=workers, options=options).run(workspaces)
    faulty_runner = ShardedRunner(
        workers=workers,
        options=replace(options, faults=plan),
        retry=RetryPolicy(chunk_timeout=30.0),
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        if plan.rate("index_corrupt") > 0.0:
            # A scratch index (never the registry's real one) is built,
            # physically corrupted, and handed to the faulty run — the
            # open-time recovery rebuilds it and the run proceeds.
            from .core.index import RegistryIndex

            db_path = Path(scratch) / "chaos-index.sqlite"
            with RegistryIndex(db_path) as pristine:
                pristine.build(workspaces)
            _faults.corrupt_sqlite(db_path)
            with RegistryIndex(db_path) as recovered:
                faulty = faulty_runner.run(workspaces, index=recovered)
        else:
            faulty = faulty_runner.run(workspaces)
    clean_text, faulty_text = _render(clean), _render(faulty)
    identical = clean_text == faulty_text
    lines = [
        f"chaos plan {plan.name!r} (seed {plan.seed}): {plan.describe()}",
        f"  workspaces : {len(workspaces)} across {workers} worker(s)",
        f"  clean run  : {clean.n_evaluated} evaluated",
        f"  faulty run : {faulty.n_evaluated} evaluated, "
        f"{faulty.n_retried} retried chunk(s), "
        f"{faulty.n_quarantined} quarantined",
        "  output     : " + ("byte-identical" if identical else "MISMATCH"),
    ]
    if not identical:
        lines += ["", "--- clean ---", clean_text, "--- faulty ---", faulty_text]
    return "\n".join(lines), 0 if identical else 1


def _parse_mounts(specs: Optional[List[str]]) -> Dict[str, str]:
    """``--mount NAME=DIR`` arguments as a name → directory mapping."""
    mounts: Dict[str, str] = {}
    for spec in specs or []:
        name, sep, directory = spec.partition("=")
        if not sep or not name or not directory:
            raise SystemExit(f"invalid --mount {spec!r} (want NAME=DIR)")
        if name in mounts:
            raise SystemExit(f"duplicate --mount name {name!r}")
        mounts[name] = directory
    return mounts


def _cmd_serve(
    registry: str,
    host: str,
    port: int,
    workers: int,
    index_path: Optional[str],
    quiet: bool,
    members_path: Optional[str] = None,
    mounts: Optional[List[str]] = None,
    auth_token: Optional[str] = None,
    warm_writes: bool = False,
) -> int:
    """``repro serve``: run the registry query service until interrupted.

    Boots the threaded HTTP server over the registry directory (the
    ``default`` registry) plus any ``--mount NAME=DIR`` extras, with
    their persistent indexes, announces the bound address on stdout
    (so ``--port 0`` callers learn the ephemeral port), and serves
    until SIGINT, then shuts down gracefully — in-flight requests
    drain before the indexes close.
    """
    import signal

    from .service.server import ServiceServer

    if not Path(registry).is_dir():
        raise SystemExit(f"not a registry directory: {registry}")
    mount_map = _parse_mounts(mounts)
    for name, directory in mount_map.items():
        if not Path(directory).is_dir():
            raise SystemExit(
                f"not a registry directory for mount {name!r}: {directory}"
            )
    if members_path is not None:
        # Validate the roster up front: a missing or malformed members
        # file must not masquerade as a port-binding failure below.
        from .core.group import load_members

        try:
            load_members(members_path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load members file: {exc}") from exc

    def _graceful(signum, frame):
        # SIGTERM (systemd stop, CI teardown, docker stop) takes the
        # same drain-then-close path as Ctrl-C.  SIGINT may arrive
        # ignored when launched as a background job, so both are wired.
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server = ServiceServer(
            registry,
            host=host,
            port=port,
            workers=workers,
            index_path=index_path,
            access_log=None if quiet else sys.stderr,
            members_path=members_path,
            mounts=mount_map,
            auth_token=auth_token,
            warm_writes=warm_writes,
        )
    except ValueError as exc:
        raise SystemExit(f"cannot start service: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"cannot bind {host}:{port}: {exc}") from exc
    bound_host, bound_port = server.address
    try:
        print(
            f"serving registry {registry} at http://{bound_host}:{bound_port} "
            f"(workers={server.httpd.workers}, "
            f"index={server.app.index_path})",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        # a signal that raced ahead of serve_forever's own handler
        # (e.g. SIGTERM during the banner) still shuts down cleanly
        server.stop()
    print("shut down", flush=True)
    return 0


def _cmd_registry_pull(
    src: str,
    dst: str,
    src_index: Optional[str] = None,
    dst_index: Optional[str] = None,
) -> int:
    """``repro registry pull``: sync one registry into another.

    Copies workspaces skip-if-present by content hash and moves their
    cached result sets and version lineage *through the index*, so the
    destination serves the exact floats the source cached.  Running
    the same pull twice is a no-op.
    """
    from .service.federation import pull_registry

    try:
        report = pull_registry(
            src, dst, src_index_path=src_index, dst_index_path=dst_index
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(report.summary())
    return 0


def _cmd_pipeline(
    problem_path: Optional[str], query: str, threshold: float, run_screening: bool
) -> str:
    from .casestudy.corpus import multimedia_registry
    from .casestudy.preferences import paper_weight_system
    from .neon.pipeline import ReusePipeline

    registry = multimedia_registry()
    pipeline = ReusePipeline(
        registry,
        m3_competency_questions(),
        weights=paper_weight_system(),
    )
    report = pipeline.run(
        query,
        coverage_threshold=threshold,
        run_screening=run_screening,
        integrate_selection=False,
    )
    return report.summary()


def _cmd_generate(
    directory: str,
    preset_name: str,
    spec_path: Optional[str],
    seed: Optional[int],
    cases: Optional[int],
) -> str:
    from .core import genreg

    if spec_path is not None:
        spec = genreg.load_spec(spec_path)
    else:
        spec = genreg.preset(preset_name)
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if cases is not None:
        overrides["n_workspaces"] = cases
    if overrides:
        spec = spec.replace(**overrides)
    paths = genreg.write_registry(spec, directory)
    digest = genreg.registry_digest(spec)
    return (
        f"generated {len(paths)} workspaces in {directory} "
        f"(spec {spec.name!r}, seed {spec.seed})\n"
        f"registry digest: {digest}"
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from . import fuzz as fuzz_mod

    if args.replay_path:
        found = fuzz_mod.replay(Path(args.replay_path))
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

    from .core import genreg

    report = fuzz_mod.run_fuzz(
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
    status = (
        "clean" if report.ok else f"{len(report.divergences)} divergence(s)"
    )
    print(
        f"fuzz: {report.cases} cases, {report.n_checks} checks, {status} "
        f"(seed {args.seed})"
    )
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            print(
                _cmd_generate(
                    args.directory,
                    args.preset,
                    args.spec_path,
                    args.seed,
                    args.cases,
                )
            )
            return 0
        if args.command == "fuzz":
            return _cmd_fuzz(args)
        if args.command == "index":
            print(_cmd_index(args.action, args.registry, args.index_path))
            return 0
        if args.command == "chaos":
            output, exit_code = _cmd_chaos(
                args.registry,
                args.plan,
                args.seed,
                args.workers,
                args.simulate,
            )
            print(output)
            return exit_code
        if args.command == "serve":
            return _cmd_serve(
                args.registry,
                args.host,
                args.port,
                args.workers,
                args.index_path,
                args.quiet,
                args.members_path,
                mounts=args.mounts,
                auth_token=args.auth_token,
                warm_writes=args.warm_writes,
            )
        if args.command == "registry":
            return _cmd_registry_pull(
                args.src, args.dst, args.src_index, args.dst_index
            )
        if args.command == "group":
            if args.no_cache and (args.refresh or args.index_path):
                raise SystemExit(
                    "group --no-cache conflicts with --refresh/--index: "
                    "the registry index would not be consulted or written"
                )
            output, exit_code = _cmd_group(
                args.registry,
                args.members_path,
                args.workers,
                args.index_path,
                use_index=not args.no_cache,
                refresh=args.refresh,
            )
            print(output)
            return exit_code
        if args.command == "trace":
            print(_cmd_trace_summarize(args.file))
            return 0
        if args.command == "batch":
            if args.no_cache and (args.refresh or args.index_path):
                raise SystemExit(
                    "batch --no-cache conflicts with --refresh/--index: "
                    "the registry index would not be consulted or written"
                )
            if args.members_path and args.objectives:
                raise SystemExit(
                    "batch --group conflicts with --objectives: a member "
                    "roster applies to whole workspaces"
                )
            group_spec = None
            if args.members_path:
                from .core.group import load_members

                try:
                    group_spec = load_members(args.members_path)
                except (OSError, ValueError) as exc:
                    raise SystemExit(
                        f"cannot load members file: {exc}"
                    ) from exc
            if args.follow:
                if args.no_cache:
                    raise SystemExit(
                        "batch --follow conflicts with --no-cache: follow "
                        "mode needs the registry index to detect changes"
                    )
                if args.trace_path:
                    raise SystemExit(
                        "batch --follow conflicts with --trace: trace a "
                        "single run instead"
                    )
                if args.refresh:
                    raise SystemExit(
                        "batch --follow conflicts with --refresh: a follow "
                        "cycle re-evaluates exactly what changed"
                    )
                if not args.workspaces:
                    raise SystemExit(
                        "batch --follow needs workspace files or a "
                        "registry directory"
                    )
                return _cmd_batch_follow(
                    args.workspaces,
                    args.objectives,
                    args.simulate,
                    args.method,
                    args.seed,
                    args.workers if args.workers is not None else 1,
                    not args.no_disk_cache,
                    args.index_path,
                    args.interval,
                    args.cycles,
                    group_spec=group_spec,
                    stats=args.stats,
                )
            registry_mode = (
                args.workers is not None
                or args.index_path is not None
                or args.refresh
                or group_spec is not None
                or args.trace_path is not None
                or args.stats
            )
            if registry_mode:
                from .core.runtime import expand_registry_source

                workspaces = expand_registry_source(args.workspaces)
                if not workspaces:
                    raise SystemExit(
                        "batch --workers/--index/--refresh/--group/"
                        "--trace/--stats needs explicit workspace files "
                        "or a registry directory"
                    )
                output, exit_code = _cmd_batch_sharded(
                    workspaces,
                    args.objectives,
                    args.simulate,
                    args.method,
                    args.seed,
                    args.workers if args.workers is not None else 1,
                    not args.no_disk_cache,
                    index_path=args.index_path,
                    use_index=not args.no_cache,
                    refresh=args.refresh,
                    group_spec=group_spec,
                    trace_path=args.trace_path,
                    stats=args.stats,
                )
            else:
                output, exit_code = _cmd_batch(
                    args.workspaces,
                    args.objectives,
                    args.simulate,
                    args.method,
                    args.seed,
                )
            print(output)
            return exit_code
        if args.command == "pipeline":
            print(_cmd_pipeline(args.workspace, args.query, args.threshold, args.screen))
            return 0
        if args.command == "corpus":
            from .casestudy.corpus import multimedia_registry
            from .ontology.io import dump_registry

            manifest = dump_registry(
                multimedia_registry(), args.directory, fmt=args.fmt
            )
            print(f"wrote 23 candidate ontologies and {manifest}")
            return 0
        problem = _load_problem(args.workspace)
        if args.command == "figure":
            print(_cmd_figure(problem, args.number))
        elif args.command == "rank":
            print(_cmd_rank(problem, args.objective))
        elif args.command == "stability":
            print(figures.figure_8(problem, mode=args.mode))
        elif args.command == "screen":
            print(figures.screening_summary(problem))
        elif args.command == "intervals":
            from .core.rankintervals import rank_intervals

            model = AdditiveModel(problem)
            evaluation = model.evaluate()
            intervals = rank_intervals(model)
            rows = [
                [
                    evaluation.rank_of(name),
                    name,
                    intervals[name].best,
                    intervals[name].worst,
                ]
                for name in evaluation.names_by_rank
            ]
            print(
                render_table(
                    ["avg rank", "alternative", "best attainable", "worst attainable"],
                    rows,
                    align_left=[False, True, False, False],
                )
            )
        elif args.command == "simulate":
            print(_cmd_simulate(problem, args.method, args.simulations, args.seed))
        elif args.command == "workspace":
            if args.action == "save":
                if not args.path:
                    raise SystemExit("workspace save requires a target path")
                save_workspace(problem, args.path)
                print(f"saved workspace to {args.path}")
            else:
                print(
                    f"problem: {problem.name}\n"
                    f"alternatives: {len(problem.alternative_names)}\n"
                    f"attributes: {len(problem.attribute_names)}\n"
                    f"best by average utility: "
                    f"{AdditiveModel(problem).evaluate().best.name}"
                )
        return 0
    except BrokenPipeError:  # pragma: no cover - shell behaviour
        return 1


if __name__ == "__main__":
    sys.exit(main())

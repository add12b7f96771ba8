"""The ``batch`` workload: cold registry runs interleaved with the follow loop.

A ``genreg`` ``default``-preset registry (mixed shapes) is evaluated by
``ShardedRunner(workers=min(2, nproc))`` with a 2000-simulation Monte
Carlo against a fresh ``RegistryIndex`` (a cold pass, repeated on fresh
copies).  Between cold passes the registry of the first pass is
followed: every cycle applies seeded edits to a few workspaces and
re-runs the whole registry the way ``repro batch --follow`` does.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import layers
from measure import (
    TRACE_PAIRS,
    Outcome,
    add_stages,
    age_files,
    alternating,
    cross_check,
    files_digest,
    overhead_pct,
    peak_rss_mb,
    percentile,
    rename_alternative,
    row_swap,
    stage_delta,
    stage_totals,
    weight_edit,
)

N_WORKSPACES = 300
SIMULATIONS = 2000
SETUP_REPEATS = 5
EDITS_PER_CYCLE = 3
STRUCTURAL_SHARE = 0.05
SAMPLE = 24
#: Fixed work of one traced phase (counts must repeat exactly).
TRACE_CYCLES = 30


def _strip(result):
    """A result row without its registry position and file path."""
    return dataclasses.replace(result, index=0, path="")


class _Registry:
    """The generated registry, its fresh copies, and the runner over them."""

    def __init__(self, seed: int, work: Path) -> None:
        from repro.core import genreg
        from repro.core.runtime import BatchOptions, ShardedRunner

        self.seed = seed
        self.work = work
        spec = genreg.preset("default", seed=seed, n_workspaces=N_WORKSPACES)
        self.setup_s: List[float] = []
        for k in range(SETUP_REPEATS):
            start = time.perf_counter()
            files = genreg.write_registry(spec, work / f"gen{k}")
            self.setup_s.append(time.perf_counter() - start)
        self.base_files = sorted(files)
        age_files(self.base_files)
        self.digest = files_digest(self.base_files)
        self.docs = {p.name: json.loads(p.read_text()) for p in self.base_files}
        self.options = BatchOptions(simulations=SIMULATIONS, seed=seed)
        self.workers = min(2, os.cpu_count() or 1)
        self.runner = ShardedRunner(workers=self.workers, options=self.options)
        self._copies = 0

    def fresh_copy(self) -> Tuple[Path, List[str], Path]:
        """An artifact-free copy of the registry and a path for a fresh index."""
        self._copies += 1
        target = self.work / f"copy{self._copies}"
        target.mkdir()
        for path in self.base_files:
            shutil.copy2(path, target / path.name)
        return target, sorted(str(target / p.name) for p in self.base_files), self.work / f"copy{self._copies}.sqlite"

    def cold_pass(self):
        from repro.core.index import RegistryIndex

        directory, paths, index_path = self.fresh_copy()
        index = RegistryIndex(index_path)
        start = time.perf_counter()
        report = self.runner.run(paths, index=index)
        return time.perf_counter() - start, report, directory, index

    def follow_cycle(self, directory: Path, index, rng: random.Random, tag: int):
        """Apply this cycle's seeded edits, then time one follow cycle."""
        from repro.core import workspace

        names = sorted(self.docs)
        for _ in range(EDITS_PER_CYCLE):
            name = rng.choice(names)
            roll = rng.random()
            if roll < STRUCTURAL_SHARE:
                doc = rename_alternative(self.docs[name], rng, tag)
            elif roll < 0.5 + STRUCTURAL_SHARE / 2:
                doc = row_swap(self.docs[name], rng)
            else:
                doc = weight_edit(self.docs[name], rng)
            workspace.save(workspace.from_dict(doc), directory / name)
        start = time.perf_counter()
        (cycle,) = self.runner.watch(directory, index, interval=0.0, max_cycles=1)
        return time.perf_counter() - start, cycle.report


def _check(reg: _Registry, out: Outcome, cold_reports, last_dir: Path, last_index, last_report) -> None:
    """Correctness: cold vs an index-less workers=1 run, follow vs refresh."""
    from repro.core.runtime import ShardedRunner

    first = [_strip(r) for r in cold_reports[0].results]
    for report in cold_reports:
        out.failed += len(report.skipped)
        rows = [_strip(r) for r in report.results]
        out.failed += sum(a != b for a, b in zip(rows, first)) + abs(len(rows) - len(first))
    rng = random.Random(f"batch-sample:{reg.seed}")
    sample = sorted(rng.sample(range(len(reg.base_files)), SAMPLE))
    reference = ShardedRunner(
        workers=1, options=dataclasses.replace(reg.options, use_disk_cache=False)
    ).run([str(reg.base_files[i]) for i in sample])
    cold_by_index = {r.index: _strip(r) for r in cold_reports[0].results}
    sample_bad = sum(
        cold_by_index.get(i) != _strip(ref) for i, ref in zip(sample, reference.results)
    ) + abs(len(reference.results) - SAMPLE)
    refresh = ShardedRunner(
        workers=reg.workers, options=dataclasses.replace(reg.options, use_disk_cache=False)
    ).run(sorted(str(p) for p in last_dir.glob("*.json")), index=last_index, refresh=True)
    follow_bad = sum(a != b for a, b in zip(last_report.results, refresh.results)) + abs(
        len(last_report.results) - len(refresh.results)
    )
    out.failed += sample_bad + follow_bad + len(last_report.skipped)
    out.note(
        f"check: cold sample {SAMPLE - sample_bad}/{SAMPLE} equal to an index-less workers=1 run;"
        f" final follow report {'equals' if not follow_bad else 'DIFFERS FROM'} a refresh=True run"
        f" ({len(refresh.results)} rows)"
    )


def run(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    reg = _Registry(seed, work)
    out.note(f"inputs: genreg default preset, seed={seed}, {N_WORKSPACES} workspaces, registry sha256={reg.digest}")
    if trace:
        return _run_traced(reg, out, work)

    # Cold passes and follow cycles alternate, each getting about half of
    # every stretch of the run, so both see the same host conditions.  The
    # follow loop runs on the registry of the first cold pass.
    dt, report, directory, index = reg.cold_pass()
    cold_times, cold_reports = [dt], [report]
    rng = random.Random(f"batch-follow:{seed}")
    cycle_times: List[float] = []
    follow_spent = 0.0
    while sum(cold_times) + follow_spent < seconds or len(cold_times) < 3 or len(cycle_times) < 10:
        while follow_spent < sum(cold_times):
            dt, report = reg.follow_cycle(directory, index, rng, len(cycle_times))
            cycle_times.append(dt)
            follow_spent += dt
        dt, cold_report, _, cold_index = reg.cold_pass()
        cold_index.close()
        cold_times.append(dt)
        cold_reports.append(cold_report)
    out.attempted = len(cold_times) * N_WORKSPACES + len(cycle_times)
    _check(reg, out, cold_reports, directory, index, report)
    index.close()

    rates = [N_WORKSPACES / t for t in cold_times]
    out.note(
        f"cold: {len(cold_times)} passes, cold_ws_per_s median {median(rates):.1f}"
        f" (passes: {', '.join(f'{r:.1f}' for r in rates)}); stacks/pass {cold_reports[0].n_stacks}"
    )
    out.note(
        f"follow: {len(cycle_times)} cycles, follow_cycle_p50_ms {median(cycle_times) * 1e3:.2f},"
        f" follow_cycle_p90_ms {percentile(cycle_times, 90) * 1e3:.2f};"
        f" last cycle delta={report.n_delta} cached={report.n_cached}"
    )
    out.metrics = {
        "setup_s": (median(reg.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "throughput_per_s": (median(rates), "1/s"),
        "p50_ms": (median(cycle_times) * 1e3, "ms"),
        "p90_ms": (percentile(cycle_times, 90) * 1e3, "ms"),
    }
    return out


def _phase(reg: _Registry, after_cold=None):
    """One fixed unit of traced work: a cold pass plus TRACE_CYCLES cycles."""
    dt, cold_report, directory, index = reg.cold_pass()
    wall = dt
    if after_cold is not None:
        after_cold()
    rng = random.Random(f"batch-follow:{reg.seed}")
    report = cold_report
    for tag in range(TRACE_CYCLES):
        cycle_dt, report = reg.follow_cycle(directory, index, rng, tag)
        wall += cycle_dt
    return wall, cold_report, directory, index, report


def _run_traced(reg: _Registry, out: Outcome, work: Path) -> Outcome:
    from repro.obs import metrics as obs_metrics

    reg.cold_pass()[3].close()  # warm-up: first-pass costs are not tracing overhead
    trace_dir = work / "trace"
    walls: Dict[bool, List[float]] = {False: [], True: []}
    snapshots: List[dict] = []
    cold_totals: List[dict] = []
    program: Dict[str, List[float]] = {}
    last = None
    for traced in alternating():
        if not traced:
            wall, _, _, index, _ = _phase(reg)
            index.close()
            walls[False].append(wall)
            continue
        before = stage_totals(obs_metrics.render_prometheus())
        inst = layers.install(trace_dir)

        def after_cold() -> None:
            if not cold_totals:  # the first traced cold pass, on its own
                cold_totals.append(layers.merge([inst.recorder.snapshot()] + layers.worker_snapshots(trace_dir)))

        try:
            wall, cold_report, directory, index, report = _phase(reg, after_cold)
        finally:
            snapshots.append(inst.recorder.snapshot())
            inst.remove()
        walls[True].append(wall)
        add_stages(program, stage_delta(before, stage_totals(obs_metrics.render_prometheus())))
        if last is not None:
            last[2].close()
        last = (cold_report, directory, index, report)
    totals = layers.merge(snapshots + layers.worker_snapshots(trace_dir))
    cold_report, directory, index, report = last
    out.attempted = N_WORKSPACES + TRACE_CYCLES
    _check(reg, out, [cold_report], directory, index, report)
    index.close()
    out.metrics = layers.layer_metrics(totals, 0.0, overhead_pct(walls[False], walls[True]))
    if inst.missing:
        out.note(f"trace: targets not found in the program: {', '.join(inst.missing)}")
    out.note(
        f"trace: {TRACE_PAIRS} traced phases of 1 cold pass + {TRACE_CYCLES} follow cycles;"
        f" untraced {', '.join(f'{w:.3f}' for w in walls[False])} s,"
        f" traced {', '.join(f'{w:.3f}' for w in walls[True])} s"
    )
    out.note("first cold pass " + layers.attribution(cold_totals[0]))
    out.note("all traced phases " + layers.attribution(totals))
    out.lines.extend(
        cross_check(program, layers.stage_equivalents(totals), "in-process", workers_gap=reg.workers > 1)
    )
    return out

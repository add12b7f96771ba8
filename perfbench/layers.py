"""Per-layer attribution by wrapping the program's public functions.

The benchmark never edits the program.  For a traced run it replaces
selected functions and methods of each module (``workspace``, ``index``,
``engine``, ``runtime``, ``service``, ``obs``) with timing wrappers,
everywhere the function object is bound: on its class, in its defining
module, and in every other ``repro`` module that imported it by name.

Accounting rules:

* ``self`` time of a call is its wall time minus the wall time of the
  wrapped calls made beneath it on the same thread.  A call beneath
  another call of the *same* key is folded into the outer one (no
  second count), so ``component_json -> component_hashes`` is one hash
  call.
* Sub-measures (``engine.lp``) are timed and counted but do not take
  their time away from the caller: the LP solves are part of the
  dominance test's own time.
* Count-only hooks (``obs.stage``) wrap context-manager factories, whose
  call time means nothing.

Forked pool workers inherit the wrappers.  An at-fork hook gives each
child a clean recorder, and the child writes its totals to a per-process
file in the trace directory each time a registry chunk finishes; the
parent merges those files (:func:`merge`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

class Recorder:
    """Per-process totals: ``{key: [calls, inclusive_s, self_s]}`` plus counters."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._file = self.trace_dir / f"w-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"

    def after_fork(self) -> None:
        """A forked child starts from zero and writes its own file."""
        self._reset()

    def stack(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def add(self, key: str, inclusive: float, own: float) -> None:
        with self._lock:
            entry = self.stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += inclusive
            entry[2] += own

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts),
            }

    def flush(self) -> None:
        """Write this process's totals (pool workers only)."""
        tmp = self._file.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, self._file)


def merge(parts: List[dict]) -> dict:
    """Sum several :meth:`Recorder.snapshot` payloads."""
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    for part in parts:
        for key, (calls, incl, own) in part["stats"].items():
            entry = stats.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += own
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    return {"stats": stats, "counts": counts}


def worker_snapshots(trace_dir: Path) -> List[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(trace_dir).glob("w-*.json"))]


# ----------------------------------------------------------------------
# Outcome hooks: counters derived from a wrapped call's result
# ----------------------------------------------------------------------

def _on_delta(rec, result, args, incl):
    if result is not None:
        rec.count("workspace.delta.hit")


def _on_probe(rec, result, args, incl):
    # only probe_with_status says whether the stat fingerprint held
    if isinstance(result, tuple):
        rec.count("index.probe.classified")
        if result[1] == "fresh":
            rec.count("index.probe.fresh")


def _on_lookup(rec, result, args, incl):
    if result is not None:
        rec.count("index.lookup.hit")


def _on_stack(rec, result, args, incl):
    rec.count("engine.stacks", len(result))
    rec.count("engine.stacked_problems", sum(s.n_problems for s in result))


def _on_run(rec, result, args, incl):
    rec.count("runtime.retries", result.n_retried)
    rec.count("runtime.skipped", len(result.skipped))
    if result.n_chunks:
        rec.count("runtime.capacity_s", incl * args[0].workers)


def _on_chunk(rec, result, args, incl):
    rec.count("runtime.chunk_busy_s", incl)
    if os.getpid() != rec.main_pid:
        rec.flush()


def _on_handle(rec, result, args, incl):
    status = result.status
    rec.count("service.status_304" if status == 304 else f"service.status_{status // 100}xx")


def _on_cache_get(rec, result, args, incl):
    rec.count("service.cache.hit" if result is not None else "service.cache.miss")


#: (module, attribute path, key, kind, outcome hook).  ``kind`` is
#: ``"time"`` (self time subtracted from the caller), ``"sub"`` (a
#: sub-measure) or ``"count"``.  Targets missing from the program are
#: skipped and reported, so a refactor that deletes one does not break
#: the run.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    # workspace: JSON parse, lowering, hashing, .npz artifacts, delta
    ("repro.core.workspace", "load", "workspace.parse", "time", None),
    ("repro.core.engine", "compile_problem", "workspace.lower", "time", None),
    ("repro.core.engine", "delta_compile", "workspace.lower", "time", None),
    ("repro.core.workspace", "content_hash", "workspace.hash", "time", None),
    ("repro.core.workspace", "component_hashes", "workspace.hash", "time", None),
    ("repro.core.workspace", "component_json", "workspace.hash", "time", None),
    ("repro.core.workspace", "_file_sha256", "workspace.hash", "time", None),
    ("repro.core.workspace", "save_compiled_arrays", "workspace.artifact_write", "time", None),
    ("repro.core.workspace", "load_compiled_arrays", "workspace.artifact_read", "time", None),
    ("repro.core.workspace", "load_compiled_delta", "workspace.delta", "time", _on_delta),
    # cross-check probes: the intervals the program's own stages enclose
    ("repro.core.workspace", "_compile_and_persist", "xcheck.workspace.compile", "time", None),
    ("repro.core.runtime", "_stacked_mc_summary", "xcheck.montecarlo_summary", "sub", None),
    # index: the freshness probe, result lookups, commits
    ("repro.core.index", "RegistryIndex.probe", "index.probe", "time", _on_probe),
    ("repro.core.index", "RegistryIndex.probe_with_status", "index.probe", "time", _on_probe),
    ("repro.core.index", "RegistryIndex.lookup_results", "index.lookup", "time", _on_lookup),
    ("repro.core.index", "RegistryIndex.lookup_workspace", "index.lookup", "time", _on_lookup),
    ("repro.core.index", "RegistryIndex.record_run", "index.write", "time", None),
    ("repro.core.index", "RegistryIndex.record_probes", "index.write", "time", None),
    # engine: stacking, evaluation, Monte Carlo, dominance screening
    ("repro.core.engine", "stack_problems", "engine.eval", "time", _on_stack),
    ("repro.core.engine", "StackedEvaluator.evaluate_all", "engine.eval", "time", None),
    ("repro.core.engine", "BatchEvaluator.evaluate", "engine.eval", "time", None),
    ("repro.core.engine", "StackedEvaluator.monte_carlo_ranks", "engine.montecarlo", "time", None),
    ("repro.core.engine", "BatchEvaluator.monte_carlo_ranks", "engine.montecarlo", "time", None),
    ("repro.core.dominance", "dominance_matrix", "engine.dominance", "time", None),
    ("repro.core.engine", "BatchEvaluator.dominance_matrix", "engine.dominance", "time", None),
    ("repro.core.engine", "StackedEvaluator.dominance_matrices", "engine.dominance", "time", None),
    ("repro.core.engine", "batch_dominance", "engine.dominance", "time", None),
    ("repro.core.engine", "stacked_dominance", "engine.dominance", "time", None),
    ("repro.core.rankintervals", "rank_intervals", "engine.rankintervals", "time", None),
    ("repro.core.engine", "BatchEvaluator.rank_intervals", "engine.rankintervals", "time", None),
    ("repro.core.engine", "StackedEvaluator.rank_intervals_all", "engine.rankintervals", "time", None),
    ("scipy.optimize", "linprog", "engine.lp", "sub", None),
    ("repro.core.simplex", "linprog_simplex", "engine.lp", "sub", None),
    # runtime: the sharded runner and its chunks
    ("repro.core.runtime", "ShardedRunner.run", "runtime.run", "time", _on_run),
    ("repro.core.runtime", "evaluate_registry_chunk", "runtime.chunk", "time", _on_chunk),
    # service: request handling and the response LRU
    ("repro.service.app", "ServiceApp.handle", "service.handle", "time", _on_handle),
    ("repro.service.cache", "ResponseCache.get", "service.cache", "count", _on_cache_get),
    ("repro.service.cache", "ResponseCache.invalidate", "service.invalidate", "count", None),
    # obs: the program's own stage hook
    ("repro.obs", "stage", "obs.stage", "count", None),
)




def _wrap(fn, key: str, kind: str, rec: Recorder, outcome: Optional[Callable]):
    if kind == "count":
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            rec.count(key + ".calls")
            result = fn(*args, **kwargs)
            if outcome is not None:
                outcome(rec, result, args, 0.0)
            return result

        return counted

    layer = key.split(".")[0]

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frames = rec.stack()
        if frames and frames[-1][0] == key:
            return fn(*args, **kwargs)  # same-key nesting folds into the outer call
        frame = [key, 0.0]
        frames.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if layer == "index":
                rec.count("index.failed")
            raise
        finally:
            incl = time.perf_counter() - start
            frames.pop()
            if kind == "time" and frames:
                frames[-1][1] += incl
            rec.add(key, incl, incl - frame[1])
            if key in ("index.probe", "index.lookup", "workspace.delta") and any(
                f[0] == "runtime.run" for f in frames
            ):
                rec.count("xcheck.index.probe_s", incl)
        if outcome is not None:
            outcome(rec, result, args, incl)
        return result

    return timed


class Installation:
    """The wrappers in place for one process; :meth:`remove` restores them."""

    def __init__(self, rec: Recorder) -> None:
        self.recorder = rec
        self.patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def remove(self) -> None:
        global _ACTIVE
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()
        _ACTIVE = None


#: The recorder the at-fork hook resets in a child (one per process).
_ACTIVE: Optional[Recorder] = None
_FORK_HOOKED = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork()


def install(trace_dir: Path) -> Installation:
    """Wrap every target present in the program; returns the installation."""
    global _ACTIVE, _FORK_HOOKED
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(trace_dir)
    inst = Installation(rec)
    for module_name in sorted({t[0] for t in TARGETS}):
        try:
            importlib.import_module(module_name)
        except ImportError:
            pass
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro.") or name == "scipy.optimize")
    ]
    for module_name, attr, key, kind, outcome in TARGETS:
        owner = sys.modules.get(module_name)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if original is None or not callable(original):
            inst.missing.append(f"{module_name}.{attr}")
            continue
        wrapper = _wrap(original, key, kind, rec, outcome)
        if len(parts) > 1:
            inst.patches.append((owner, parts[-1], original))
            setattr(owner, parts[-1], wrapper)
            continue
        # a module-level function: rebind it wherever it was imported by name
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    inst.patches.append((module, name, original))
                    setattr(module, name, wrapper)
    _ACTIVE = rec
    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_after_fork_in_child)
        _FORK_HOOKED = True
    return inst


# ----------------------------------------------------------------------
# Per-layer metrics from merged totals
# ----------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict, transport_ms: float, overhead_pct: float) -> Dict[str, Tuple[float, str]]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from merged totals."""
    stats, counts = totals["stats"], totals["counts"]

    def calls(key):
        return int(stats.get(key, [0, 0.0, 0.0])[0])

    def self_ms(key):
        return stats.get(key, [0, 0.0, 0.0])[2] * 1e3

    def incl_ms(key):
        return stats.get(key, [0, 0.0, 0.0])[1] * 1e3

    def n(name):
        return counts.get(name, 0.0)

    stacks = n("engine.stacks")
    out: Dict[str, Tuple[float, str]] = {
        "workspace.parse.calls": (calls("workspace.parse"), "count"),
        "workspace.parse.ms": (self_ms("workspace.parse"), "ms"),
        "workspace.lower.ms": (self_ms("workspace.lower"), "ms"),
        "workspace.hash.ms": (self_ms("workspace.hash"), "ms"),
        "workspace.artifact_write.calls": (calls("workspace.artifact_write"), "count"),
        "workspace.artifact_write.ms": (self_ms("workspace.artifact_write"), "ms"),
        "workspace.artifact_read.calls": (calls("workspace.artifact_read"), "count"),
        "workspace.artifact_read.ms": (self_ms("workspace.artifact_read"), "ms"),
        "workspace.delta.calls": (calls("workspace.delta"), "count"),
        "workspace.delta.ms": (self_ms("workspace.delta"), "ms"),
        "workspace.delta.hit_ratio": (_ratio(n("workspace.delta.hit"), calls("workspace.delta")), "ratio"),
        "index.probe.calls": (calls("index.probe"), "count"),
        "index.probe.ms": (self_ms("index.probe"), "ms"),
        "index.probe.fresh_ratio": (_ratio(n("index.probe.fresh"), n("index.probe.classified")), "ratio"),
        "index.lookup.calls": (calls("index.lookup"), "count"),
        "index.lookup.ms": (self_ms("index.lookup"), "ms"),
        "index.lookup.hit_ratio": (_ratio(n("index.lookup.hit"), calls("index.lookup")), "ratio"),
        "index.write.calls": (calls("index.write"), "count"),
        "index.write.ms": (self_ms("index.write"), "ms"),
        "index.failed": (int(n("index.failed")), "count"),
        "engine.stacks": (int(stacks), "count"),
        "engine.problems_per_stack": (_ratio(n("engine.stacked_problems"), stacks), "count"),
        "engine.eval.ms": (self_ms("engine.eval"), "ms"),
        "engine.montecarlo.calls": (calls("engine.montecarlo"), "count"),
        "engine.montecarlo.ms": (self_ms("engine.montecarlo"), "ms"),
        "engine.dominance.calls": (calls("engine.dominance"), "count"),
        "engine.dominance.ms": (self_ms("engine.dominance"), "ms"),
        "engine.rankintervals.ms": (self_ms("engine.rankintervals"), "ms"),
        "engine.lp_solves": (calls("engine.lp"), "count"),
        "engine.lp.ms": (incl_ms("engine.lp"), "ms"),
        "runtime.run.calls": (calls("runtime.run"), "count"),
        "runtime.run.ms": (self_ms("runtime.run"), "ms"),
        "runtime.chunks": (calls("runtime.chunk"), "count"),
        "runtime.chunk.ms": (self_ms("runtime.chunk"), "ms"),
        "runtime.worker_busy_ratio": (_ratio(n("runtime.chunk_busy_s"), n("runtime.capacity_s")), "ratio"),
        "runtime.retries": (int(n("runtime.retries")), "count"),
        "runtime.skipped": (int(n("runtime.skipped")), "count"),
        "service.handle.calls": (calls("service.handle"), "count"),
        "service.handle.ms": (self_ms("service.handle"), "ms"),
        "service.transport.ms": (transport_ms, "ms"),
        "service.cache.hit_ratio": (
            _ratio(n("service.cache.hit"), n("service.cache.hit") + n("service.cache.miss")),
            "ratio",
        ),
        "service.cache.invalidations": (int(n("service.invalidate.calls")), "count"),
        "service.status_2xx": (int(n("service.status_2xx")), "count"),
        "service.status_304": (int(n("service.status_304")), "count"),
        "service.status_4xx": (int(n("service.status_4xx")), "count"),
        "service.status_5xx": (int(n("service.status_5xx")), "count"),
        "obs.stage.calls": (int(n("obs.stage.calls")), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return out


#: Wrapper-side equivalents of the program's ``repro_eval_stage_seconds``
#: stages, in seconds, for the cross-check.
def stage_equivalents(totals: dict) -> Dict[str, Tuple[int, float]]:
    stats, counts = totals["stats"], totals["counts"]
    compile_ = stats.get("xcheck.workspace.compile", [0, 0.0, 0.0])
    mc = stats.get("engine.montecarlo", [0, 0.0, 0.0])
    summary = stats.get("xcheck.montecarlo_summary", [0, 0.0, 0.0])
    return {
        "workspace.compile": (int(compile_[0]), compile_[1]),
        "eval.montecarlo": (int(mc[0]), mc[1] + summary[1]),
        "index.probe": (int(stats.get("runtime.run", [0])[0]), counts.get("xcheck.index.probe_s", 0.0)),
    }


def attribution(totals: dict) -> str:
    """Self time per layer, largest first (the layer stress check)."""
    by_layer: Dict[str, float] = {}
    for key, (_, _, own) in totals["stats"].items():
        layer = key.split(".")[0]
        if layer != "xcheck" and key != "engine.lp":  # sub-measures are inside their caller
            by_layer[layer] = by_layer.get(layer, 0.0) + own
    whole = sum(by_layer.values()) or 1.0
    parts = sorted(by_layer.items(), key=lambda item: -item[1])
    return "attribution (self ms): " + ", ".join(
        f"{layer} {seconds * 1e3:.1f} ({seconds / whole * 100:.0f}%)" for layer, seconds in parts
    )

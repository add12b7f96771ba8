"""Shared helpers: percentiles, peak memory, input digests, stage
histograms and the seeded workspace edits every workload applies."""

from __future__ import annotations

import copy
import hashlib
import math
import os
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    lines: List[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        self.lines.append(text)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1-99), linear between closest ranks."""
    if len(values) == 1:  # statistics.quantiles needs two points
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_reference_ms(seconds: float = 0.5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Printed with every run (never a metric), so a reader can tell a
    slower host from a slower program.
    """
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i % 7
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def files_digest(paths: Iterable[Path]) -> str:
    """sha256 over the generated registry (file names and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        digest.update(path.name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def age_files(paths: Iterable[Path], seconds: float = 3600.0) -> None:
    """Backdate generated files, as a registry's files are before a run.

    Files written moments before the index first records them sit inside
    the index's recording window, where every probe re-hashes the bytes;
    a registry that has existed for a while takes the stat fast path.
    """
    stamp = time.time() - seconds
    for path in paths:
        os.utime(path, (stamp, stamp))


# ----------------------------------------------------------------------
# The program's stage histogram (repro_eval_stage_seconds)
# ----------------------------------------------------------------------

_STAGE_LINE = re.compile(
    r'^repro_eval_stage_seconds_(sum|count)\{stage="([^"]+)"\} (\S+)$'
)


def stage_totals(prometheus_text: str) -> Dict[str, List[float]]:
    """``{stage: [count, seconds]}`` from a Prometheus exposition."""
    totals: Dict[str, List[float]] = {}
    for line in prometheus_text.splitlines():
        match = _STAGE_LINE.match(line)
        if match:
            entry = totals.setdefault(match.group(2), [0.0, 0.0])
            entry[0 if match.group(1) == "count" else 1] = float(match.group(3))
    return totals


def stage_delta(before: Dict[str, List[float]], after: Dict[str, List[float]]) -> Dict[str, List[float]]:
    return {
        name: [after[name][0] - before.get(name, [0.0, 0.0])[0], after[name][1] - before.get(name, [0.0, 0.0])[1]]
        for name in after
    }


def cross_check(program: Dict[str, List[float]], wrappers: Dict[str, Tuple[int, float]], where: str, workers_gap: bool) -> List[str]:
    """Lines comparing the program's stage histogram with the wrappers.

    ``index.probe`` is one observation per registry run on the program
    side; the wrapper side counts the same runs.  A stage also encloses
    the code between the wrapped calls, so up to 50 us per observation
    (or 10%) counts as agreement.
    """
    lines = []
    for stage, (w_count, w_seconds) in wrappers.items():
        p_count, p_seconds = program.get(stage, [0.0, 0.0])
        if not w_count and not p_count:
            continue
        if workers_gap and p_count < w_count:
            verdict = "gap: worker-process metrics are not shipped home"
        else:
            gap = abs(p_seconds - w_seconds)
            diff = gap / max(p_seconds, w_seconds, 1e-12)
            close = diff <= 0.10 or gap <= 50e-6 * max(p_count, 1)
            verdict = "agree" if p_count == w_count and close else f"DISAGREE ({diff * 100:.1f}% time)"
        lines.append(
            f"xcheck {where} {stage}: histogram n={int(p_count)} {p_seconds * 1e3:.1f} ms"
            f" | wrappers n={w_count} {w_seconds * 1e3:.1f} ms | {verdict}"
        )
    return lines


# ----------------------------------------------------------------------
# Traced runs: untraced/traced pairs, alternating which goes first
# ----------------------------------------------------------------------

TRACE_PAIRS = 4


def alternating(pairs: int = TRACE_PAIRS) -> Iterable[bool]:
    """Whether each phase of a traced run is traced, in run order.

    Pairs alternate which side runs first (untraced-traced, then
    traced-untraced, ...).  Later phases tend to run faster, and with an
    even number of pairs that trend cancels out of the comparison.
    """
    for i in range(pairs):
        yield from (False, True) if i % 2 == 0 else (True, False)


def overhead_pct(untraced: Sequence[float], traced: Sequence[float]) -> float:
    """Extra wall time of the traced phases over the untraced ones, in percent."""
    return (sum(traced) / sum(untraced) - 1.0) * 100.0


def add_stages(total: Dict[str, List[float]], delta: Dict[str, List[float]]) -> None:
    for name, (count, seconds) in delta.items():
        entry = total.setdefault(name, [0.0, 0.0])
        entry[0] += count
        entry[1] += seconds


# ----------------------------------------------------------------------
# Seeded edits (always applied to the generated document, so every edit
# is one change away from it and the load stays stationary)
# ----------------------------------------------------------------------

def _sibling_groups(doc: dict) -> List[List[str]]:
    groups: List[List[str]] = []
    weights = doc["weights"]

    def walk(node: dict) -> None:
        children = node.get("children") or []
        names = [c["name"] for c in children if c["name"] in weights]
        if len(names) >= 2:
            groups.append(names)
        for child in children:
            walk(child)

    walk(doc["hierarchy"])
    return groups


def weight_edit(doc: dict, rng: random.Random) -> dict:
    """Replace one local weight interval by a fresh admissible one.

    The new box keeps its sibling group straddling the simplex (sum of
    lowers <= 1 <= sum of uppers), so the edit is always valid.
    """
    out = copy.deepcopy(doc)
    group = rng.choice(_sibling_groups(out))
    node = rng.choice(group)
    others = [out["weights"][name] for name in group if name != node]
    low_sum = sum(iv[0] for iv in others)
    up_sum = sum(iv[1] for iv in others)
    low = math.floor(rng.uniform(0.0, max(0.0, min(1.0, 1.0 - low_sum))) * 1e6) / 1e6
    up_min = max(low, 1.0 - up_sum, 1e-3)
    up = math.ceil(rng.uniform(up_min, min(1.0, up_min + 0.3)) * 1e6) / 1e6
    out["weights"][node] = [low, max(up, up_min)]
    return out


def row_swap(doc: dict, rng: random.Random) -> dict:
    """Swap the performance rows of two alternatives (a delta edit)."""
    out = copy.deepcopy(doc)
    alts = out["alternatives"]
    pairs = [
        (i, j)
        for i in range(len(alts))
        for j in range(i + 1, len(alts))
        if alts[i]["performances"] != alts[j]["performances"]
    ]
    if not pairs:
        return weight_edit(doc, rng)
    i, j = rng.choice(pairs)
    alts[i]["performances"], alts[j]["performances"] = (
        alts[j]["performances"],
        alts[i]["performances"],
    )
    return out


def rename_alternative(doc: dict, rng: random.Random, tag: int) -> dict:
    """Rename one alternative: a structural edit that forces a full recompile."""
    out = copy.deepcopy(doc)
    alt = rng.choice(out["alternatives"])
    alt["name"] = f"{alt['name']}~{tag}"
    return out

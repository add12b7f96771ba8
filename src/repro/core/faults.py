"""Seeded, deterministic fault injection for the registry runtime.

Production registries live with partial failure: workers die, NFS
reads return ``EIO`` halfway through a compiled artifact, a power cut
tears a sqlite page, a poll loop races a deploy.  This module makes those
failures *injectable* so the recovery paths in
:mod:`repro.core.runtime`, :mod:`repro.core.workspace` and
:mod:`repro.core.index` are exercised deterministically instead of
waiting for production to exercise them.

A :class:`FaultPlan` is a frozen, picklable value — it travels to
worker processes inside ``BatchOptions`` — holding one
:class:`FaultRule` per fault *site*:

``worker_kill``
    hard-kill the worker process (``os._exit``) before it evaluates a
    chunk, producing a real ``BrokenProcessPool`` in the parent.
``artifact_read``
    raise :class:`InjectedFault` (an ``OSError``) inside compiled
    artifact loads, before the file is opened, forcing the
    recompile-from-JSON fallback.
``chunk_delay``
    sleep before evaluating a chunk, long enough to trip the runner's
    no-progress timeout and exercise hung-worker abandonment.
``registry_poll``
    raise :class:`InjectedFault` inside the ``watch()`` poll loop,
    exercising its log-and-continue backoff.
``index_corrupt``
    not raised inline — plans carrying this rule ask the harness
    (``repro chaos``, tests) to physically corrupt the sqlite index
    with :func:`corrupt_sqlite` before the run, exercising the
    move-aside-and-rebuild recovery in ``RegistryIndex``.

Every decision is a pure function of ``(plan.seed, site, key,
attempt)`` hashed through SHA-256 — two runs with the same plan make
identical strikes, retries (``attempt + 1``) draw fresh independent
decisions, and the no-plan default costs one ``is None`` check at each
hook site.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

from ..obs import metrics as _metrics

#: Every fault site a :class:`FaultRule` may target.
SITES = (
    "worker_kill",
    "artifact_read",
    "chunk_delay",
    "registry_poll",
    "index_corrupt",
)

#: Exit status used by :meth:`FaultPlan.maybe_kill`; distinctive enough
#: to recognise an injected death in a process table or CI log.
KILL_EXIT_CODE = 86

#: Default seed for named plans — the paper's publication year, like
#: every other deterministic seed in this repository.
DEFAULT_SEED = 2012


class InjectedFault(OSError):
    """An injected I/O failure.

    Subclasses :class:`OSError` so it flows through exactly the
    handlers a real ``EIO``/``ENOENT`` would take — the point is to
    prove those handlers recover, not to add a parallel error path.
    """


@dataclass(frozen=True)
class FaultRule:
    """One site's failure behaviour: fire with ``probability`` per key.

    ``delay`` only matters for the ``chunk_delay`` site — it is how
    long the struck worker sleeps, and should exceed the runner's
    no-progress timeout to register as a hang.
    """

    site: str
    probability: float
    delay: float = 0.0

    def __post_init__(self):
        """Validate the site name and probability range."""
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (known: {SITES})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability!r}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay!r}")


def _unit(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one decision point."""
    digest = hashlib.sha256(f"{seed}:{site}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _count_strike(site: str) -> None:
    """Record one fired fault in the process-wide metrics registry."""
    _metrics.registry().counter(
        "repro_faults_injected_total",
        "Injected faults that actually fired, by site.",
        labelnames=("site",),
    ).inc(site=site)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault rules; frozen and picklable.

    The plan itself never mutates state — callers ask it questions
    (:meth:`decide`) or invoke the standard strike helpers at the
    hook sites.  Identical ``(seed, site, key, attempt)`` tuples always
    answer identically, which is what makes ``repro chaos``'s
    byte-identical clean-vs-faulty comparison meaningful.
    """

    name: str
    seed: int
    rules: Tuple[FaultRule, ...]

    def rule(self, site: str) -> Optional[FaultRule]:
        """The rule targeting ``site``, or None when the site is clean."""
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    def rate(self, site: str) -> float:
        """The strike probability at ``site`` (0.0 when unruled)."""
        rule = self.rule(site)
        return 0.0 if rule is None else rule.probability

    def decide(self, site: str, key: str, attempt: int = 0) -> bool:
        """Whether this plan strikes ``site`` for ``key`` on ``attempt``."""
        rule = self.rule(site)
        if rule is None or rule.probability <= 0.0:
            return False
        return _unit(self.seed, site, key, attempt) < rule.probability

    def strike(self, site: str, key: str, attempt: int = 0) -> None:
        """Raise :class:`InjectedFault` when the plan strikes here."""
        if self.decide(site, key, attempt):
            _count_strike(site)
            raise InjectedFault(
                f"injected {site} fault (plan {self.name!r}, key {key!r}, "
                f"attempt {attempt})"
            )

    def maybe_kill(self, key: str, attempt: int = 0) -> None:
        """Hard-kill the current process when ``worker_kill`` strikes.

        ``os._exit`` skips interpreter teardown, so the parent's
        ``ProcessPoolExecutor`` sees an abrupt worker death — a real
        ``BrokenProcessPool``, not a polite exception.  Only ever call
        this from a *worker* process.
        """
        if self.decide("worker_kill", key, attempt):
            _count_strike("worker_kill")
            os._exit(KILL_EXIT_CODE)

    def maybe_sleep(self, key: str, attempt: int = 0) -> None:
        """Sleep for the rule's ``delay`` when ``chunk_delay`` strikes."""
        rule = self.rule("chunk_delay")
        if rule is not None and self.decide("chunk_delay", key, attempt):
            _count_strike("chunk_delay")
            time.sleep(rule.delay)

    def describe(self) -> str:
        """One-line human summary of the plan's rules."""
        if not self.rules:
            return "no fault rules (clean)"
        parts = []
        for rule in self.rules:
            text = f"{rule.site} p={rule.probability:.2f}"
            if rule.delay:
                text += f" delay={rule.delay:g}s"
            parts.append(text)
        return ", ".join(parts)


#: The plan visible to in-process hook sites; ``None`` (the default)
#: keeps every hook a single attribute check.
_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Make ``plan`` visible to this process's hook sites."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    """Restore the zero-overhead no-plan default."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan, if any."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


#: Plan names accepted by :func:`named_plan` and ``repro chaos --plan``.
PLAN_NAMES = (
    "none",
    "worker-kill",
    "flaky-artifacts",
    "slow-chunks",
    "torn-index",
    "mixed",
)


def named_plan(name: str, seed: int = DEFAULT_SEED) -> FaultPlan:
    """A curated plan by name (see :data:`PLAN_NAMES`).

    ``worker-kill`` is the benchmark's reference plan: each chunk
    dispatch has a 10 % chance of taking its worker down with it.
    """
    rules = {
        "none": (),
        "worker-kill": (FaultRule("worker_kill", 0.10),),
        "flaky-artifacts": (FaultRule("artifact_read", 0.25),),
        "slow-chunks": (FaultRule("chunk_delay", 0.20, delay=2.0),),
        "torn-index": (FaultRule("index_corrupt", 1.0),),
        "mixed": (
            FaultRule("worker_kill", 0.05),
            FaultRule("artifact_read", 0.10),
            FaultRule("index_corrupt", 1.0),
        ),
    }
    if name not in rules:
        raise ValueError(f"unknown fault plan {name!r} (known: {PLAN_NAMES})")
    return FaultPlan(name=name, seed=seed, rules=rules[name])


def corrupt_sqlite(db_path: Path, n_bytes: int = 1024) -> None:
    """Physically corrupt a sqlite database file in place.

    Zeroes the first ``n_bytes`` — destroying the sqlite header — and
    removes any ``-wal``/``-shm`` sidecars, simulating a torn write.
    Opening the file afterwards fails with ``sqlite3.DatabaseError``,
    which is exactly what ``RegistryIndex``'s move-aside-and-rebuild
    recovery expects to see.
    """
    db_path = Path(db_path)
    size = db_path.stat().st_size
    with open(db_path, "r+b") as handle:
        handle.write(b"\x00" * min(n_bytes, size))
    for suffix in ("-wal", "-shm"):
        sidecar = Path(str(db_path) + suffix)
        if sidecar.exists():
            sidecar.unlink()

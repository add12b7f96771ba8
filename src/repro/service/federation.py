"""Federation layer: many named registries behind one service.

PR 10 grows the query service from one registry directory into a
federated, OntoMaven-style artifact fabric: a :class:`Federation` maps
registry *names* to :class:`RegistryState` bundles, each with its own
:class:`~repro.core.index.RegistryIndex`, response cache, circuit
breaker and write lock — so a failure storm or an edit burst in one
registry never evicts or degrades another's answers (the isolation
``tests/service/test_federation.py`` pins).

Registries can be mounted at boot (``repro serve --mount NAME=DIR``)
or at runtime (``POST /v1/registries``), and unmounted again; the
*default* registry — the one ``--registry`` names — also answers the
legacy unprefixed routes (``/v1/workspaces/...``) byte-identically.

:func:`pull_registry` is registry-to-registry sync (``repro registry
pull SRC DST``): workspace files copy skip-if-present by content hash,
and their cached result sets and version lineage travel *through the
index* so the destination serves the exact floats the source cached —
no re-evaluation, byte-identical bodies, idempotent reruns.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..core.index import DEFAULT_INDEX_FILENAME, RegistryIndex
from ..core.runtime import expand_registry_source
from .cache import ResponseCache

__all__ = [
    "DEFAULT_REGISTRY_NAME",
    "RegistryState",
    "Federation",
    "PullReport",
    "pull_registry",
]

#: The name the ``--registry`` directory mounts under (and the one the
#: legacy unprefixed routes alias).
DEFAULT_REGISTRY_NAME = "default"

#: Valid registry names: DNS-label-ish, path-safe, boundedly short.
_NAME = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")


@dataclass
class RegistryState:
    """Everything the service holds per mounted registry.

    One bundle per registry name: the resolved root directory, its
    index, the response cache (which also answers stale reads during
    an index outage), the evaluation circuit breaker and the
    single-writer lock.  The breaker is injected by the app (it owns
    the breaker class) via the federation's ``breaker_factory``.
    """

    name: str
    root: Path
    index_path: Path
    index: RegistryIndex
    cache: ResponseCache
    breaker: object
    write_lock: threading.Lock = field(default_factory=threading.Lock)

    def close(self) -> None:
        """Release the registry's index connections."""
        self.index.close()


class Federation:
    """The mount table: registry name → :class:`RegistryState`.

    Thread-safe; mounting validates the name and directory eagerly so
    a bad ``--mount`` fails boot (and a bad ``POST /v1/registries``
    fails the request) instead of the first read.
    """

    def __init__(
        self,
        breaker_factory: Callable[[], object],
        cache_size: int = 1024,
    ) -> None:
        """An empty mount table building per-registry caches/breakers."""
        self._lock = threading.RLock()
        self._states: "Dict[str, RegistryState]" = {}
        self._breaker_factory = breaker_factory
        self._cache_size = cache_size
        self.default_name: Optional[str] = None

    def mount(
        self,
        name: str,
        root: Union[str, Path],
        index_path: Optional[Union[str, Path]] = None,
        default: bool = False,
    ) -> RegistryState:
        """Mount ``root`` under ``name``; raises ``ValueError`` when bad.

        The first mount (or ``default=True``) becomes the default
        registry the legacy routes alias.
        """
        if not _NAME.match(name):
            raise ValueError(
                f"invalid registry name {name!r} (want lowercase "
                "letters, digits, '.', '_' or '-'; max 64 chars)"
            )
        resolved = Path(root).resolve()
        if not resolved.is_dir():
            raise ValueError(f"not a registry directory: {root}")
        db_path = (
            Path(index_path)
            if index_path is not None
            else resolved / DEFAULT_INDEX_FILENAME
        )
        with self._lock:
            if name in self._states:
                raise ValueError(f"registry {name!r} is already mounted")
            state = RegistryState(
                name=name,
                root=resolved,
                index_path=db_path,
                index=RegistryIndex(db_path),
                cache=ResponseCache(self._cache_size),
                breaker=self._breaker_factory(),
            )
            self._states[name] = state
            if default or self.default_name is None:
                self.default_name = name
        return state

    def unmount(self, name: str) -> RegistryState:
        """Remove (and close) one mounted registry; ``KeyError`` if absent.

        The default registry cannot be unmounted (``ValueError``) —
        the legacy aliases would dangle.
        """
        with self._lock:
            if name not in self._states:
                raise KeyError(name)
            if name == self.default_name:
                raise ValueError(
                    f"registry {name!r} is the default registry and "
                    "cannot be unmounted"
                )
            state = self._states.pop(name)
        state.close()
        return state

    def get(self, name: str) -> Optional[RegistryState]:
        """The state mounted under ``name``, or ``None``."""
        with self._lock:
            return self._states.get(name)

    @property
    def default(self) -> RegistryState:
        """The default registry's state (the legacy-route target)."""
        with self._lock:
            if self.default_name is None:
                raise RuntimeError("federation has no mounted registry")
            return self._states[self.default_name]

    def states(self) -> List[RegistryState]:
        """Every mounted state, sorted by name."""
        with self._lock:
            return [self._states[name] for name in sorted(self._states)]

    def names(self) -> List[str]:
        """Every mounted registry name, sorted."""
        with self._lock:
            return sorted(self._states)

    def __len__(self) -> int:
        """The number of mounted registries."""
        with self._lock:
            return len(self._states)

    def close(self) -> None:
        """Close every mounted registry's index."""
        with self._lock:
            states, self._states = list(self._states.values()), {}
        for state in states:
            state.close()


@dataclass(frozen=True)
class PullReport:
    """What one ``repro registry pull`` run did.

    ``copied`` are new files, ``updated`` are files whose destination
    content hash differed, ``skipped`` matched by content hash, and
    ``unreadable`` could not be parsed on the source side.  Result
    sets and lineage rows count across all synced workspaces.
    """

    n_workspaces: int
    copied: int
    updated: int
    skipped: int
    unreadable: int
    result_sets_copied: int
    result_sets_skipped: int
    version_rows_added: int

    def summary(self) -> str:
        """A one-paragraph human rendering (the CLI's output)."""
        return (
            f"pulled {self.n_workspaces} workspace(s): "
            f"{self.copied} copied, {self.updated} updated, "
            f"{self.skipped} skipped (content hash match), "
            f"{self.unreadable} unreadable; "
            f"result sets: {self.result_sets_copied} copied, "
            f"{self.result_sets_skipped} already present; "
            f"version lineage rows added: {self.version_rows_added}"
        )


def pull_registry(
    src_dir: Union[str, Path],
    dst_dir: Union[str, Path],
    src_index_path: Optional[Union[str, Path]] = None,
    dst_index_path: Optional[Union[str, Path]] = None,
) -> PullReport:
    """Sync workspaces + cached results from one registry into another.

    For every readable workspace in ``src_dir``: the file copies into
    the same relative path under ``dst_dir`` unless the destination
    already carries the same content hash (skip-if-present); its cached
    result sets copy index-to-index per ``(content_hash, config_hash)``
    — never overwriting rows the destination already has — and its
    version lineage merges in.  Files present only in the destination
    are left untouched.  Running the same pull twice is a no-op
    (idempotent): everything skips on the second pass.

    Returns a :class:`PullReport`; raises ``ValueError`` when either
    side is not a directory (the destination is created when missing).
    """
    src = Path(src_dir).resolve()
    if not src.is_dir():
        raise ValueError(f"not a registry directory: {src_dir}")
    dst = Path(dst_dir)
    dst.mkdir(parents=True, exist_ok=True)
    dst = dst.resolve()
    if src == dst:
        raise ValueError("source and destination registries are the same")
    src_db = (
        Path(src_index_path)
        if src_index_path is not None
        else src / DEFAULT_INDEX_FILENAME
    )
    dst_db = (
        Path(dst_index_path)
        if dst_index_path is not None
        else dst / DEFAULT_INDEX_FILENAME
    )
    copied = updated = skipped = unreadable = 0
    sets_copied = sets_skipped = lineage_added = 0
    files = [Path(p) for p in expand_registry_source(src, src_db)]
    with RegistryIndex(src_db) as src_index, RegistryIndex(dst_db) as dst_index:
        for path in files:
            rel = path.relative_to(src)
            record, _ = src_index.probe(path)
            if record is None:
                unreadable += 1
                continue
            target = dst / rel
            existing = (
                dst_index.probe(target)[0] if target.is_file() else None
            )
            if existing is not None and (
                existing.content_hash == record.content_hash
            ):
                skipped += 1
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(path.read_bytes())
                if existing is None:
                    copied += 1
                else:
                    updated += 1
            # results travel through the index, keyed by content hash —
            # the destination serves the exact floats the source cached
            outcome = dst_index.import_result_sets(
                record.content_hash,
                src_index.result_sets(record.content_hash),
            )
            sets_copied += outcome["copied"]
            sets_skipped += outcome["skipped"]
            lineage_added += dst_index.import_versions(
                target, src_index.version_rows(path)
            )
            probed, _ = dst_index.probe(target)
            if probed is not None:
                dst_index.record_run([probed])
    return PullReport(
        n_workspaces=len(files),
        copied=copied,
        updated=updated,
        skipped=skipped,
        unreadable=unreadable,
        result_sets_copied=sets_copied,
        result_sets_skipped=sets_skipped,
        version_rows_added=lineage_added,
    )

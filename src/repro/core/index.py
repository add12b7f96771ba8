"""Persistent registry index with cross-run result caching.

The sharded runtime (:mod:`repro.core.runtime`) made one *run* over a
registry fast; this module makes the *next* run fast.  A
:class:`RegistryIndex` is a sqlite database that acts as the system of
record for a registry of workspace JSON files:

* a ``workspaces`` table holds one row per workspace — path, stat
  fingerprint (``mtime_ns`` + ``size``), raw-byte sha256
  (``source_sha``), semantic content hash (sha256 of the canonical
  workspace JSON, the same key the ``.npz`` compile cache records), the
  source sha the compiled ``.npz`` artifact carried when last
  inspected, and the ``(n_alternatives, n_attributes)`` shape signature
  used for stacking;
* a ``results`` table caches evaluated outcomes keyed by
  ``(content_hash, config_hash)`` — the workspace *content* and the
  evaluation *configuration* (:func:`eval_config_hash`), never the
  path.  Renaming, copying or touching a file therefore keeps its
  cached results; only a semantic edit invalidates them.

Freshness is a three-step ladder, cheapest first: a matching stat
fingerprint (``mtime_ns`` + ``size`` + ``ctime_ns``) trusts the stored
hashes without reading the file; a matching ``source_sha`` (file
re-read, e.g. after ``touch``) keeps the stored content hash;
otherwise a new identity is derived — from a fresh artifact's header,
or by one :func:`repro.core.workspace.ingest` pass.
:meth:`RegistryIndex.examine` walks the ladder up to that last step
and :meth:`RegistryIndex.derive` takes it, so a caller may derive
elsewhere: the batch runner lets the pool worker that compiles a new,
artifact-free workspace ingest it, and completes the row from the
identity it ships home (:meth:`RegistryIndex.fingerprint`).
Results are valid per content hash, so every one of those steps ends
at the same cache key.

Two hardenings close the classic stat-cache staleness hole (an edit
that preserves ``mtime`` and ``size``, e.g. ``cp -p``, ``git
checkout`` or two writes within the filesystem's timestamp
resolution): the fingerprint includes ``ctime_ns`` — bumped by every
rename/replace/metadata change and not forgeable from userspace — and
each row remembers *when* it was recorded (``recorded_ns``), so a file
whose ``mtime`` falls inside the recording window (it was modified
about when the row was written, where a same-tick second write could
hide) is byte-verified against ``source_sha`` before the stored hashes
are trusted.  Since schema v3 each row also carries the per-component
fingerprint table (``component_json``, see
:func:`repro.core.workspace.component_hashes`) that powers delta
compilation in :mod:`repro.core.runtime`.

Caching per-problem results is sound because the engine guarantees
each problem's numbers depend only on its own compiled arrays and its
own seeded RNG stream — never on which problems share a stack, chunk
or process (the PR 2 determinism contract).  A cached row is therefore
byte-for-byte the number a fresh evaluation would produce (floats
round-trip exactly through sqlite ``REAL``, which is IEEE-754 binary64).

Concurrency: the database runs in WAL mode and every mutation happens
in a single ``BEGIN IMMEDIATE`` transaction issued by one writer (the
merge step after the process-pool fan-in); worker processes never touch
the index.  Readers see either the previous or the new state, never a
partial run.  One :class:`RegistryIndex` instance may be shared across
threads — each thread lazily gets its own sqlite connection to the same
database file, so WAL readers (e.g. the query service's request
threads, :mod:`repro.service`) proceed concurrently while a writer
commits.

In-process mirror: an instance keeps a copy of its ``workspaces`` rows
(without ``component_json``) and of the result sets those rows'
content hashes reference, filled by one bulk read on first use.  The
freshness ladder and :meth:`RegistryIndex.lookup_results` read it
first, so a follow cycle over an unchanged registry issues no sqlite
statement per workspace.  It is a cache of the index, not a second
index: a miss falls through to sqlite (rows and results another
process wrote are still found, and nothing is cached negatively); only
this instance's own committed writes update it, ``vacuum``, recovery
and ``close`` drop it; a mirrored row is trusted only through the same
stat / recording-window / derive ladder, so a row another process made
stale costs a false miss, never a false hit; and a content hash's
result sets leave it with the last row that references that hash, so
it grows with the registry, not with its history.

A database that cannot be written (a read-only mount, or an index
file or directory without write permission) is opened read-only: the
warm index still serves probes and cached results, and the recording
calls (:meth:`RegistryIndex.record_run`, quarantine bookkeeping)
become no-ops, so a run evaluates what it cannot serve without
recording it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import metrics as _metrics
from ..obs import span as _span
from . import workspace as _workspace
from .engine import compile_problem

__all__ = [
    "DEFAULT_INDEX_FILENAME",
    "SCHEMA_VERSION",
    "RECORDING_WINDOW_NS",
    "eval_config_hash",
    "default_index_path",
    "IndexedWorkspace",
    "CachedResult",
    "QuarantinedWorkspace",
    "ProbeEvidence",
    "RegistryIndex",
]

DEFAULT_INDEX_FILENAME = ".repro-index.sqlite"
SCHEMA_VERSION = 5

#: How close (in nanoseconds) a file's ``mtime`` may sit to the moment
#: its row was recorded before the stat fast path stops being trusted
#: and the raw bytes are re-verified.  Two seconds comfortably covers
#: coarse filesystem timestamp resolution (FAT: 2 s) plus clock skew
#: between the stat clock and :func:`time.time_ns`.
RECORDING_WINDOW_NS = 2_000_000_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS index_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS workspaces (
    path            TEXT PRIMARY KEY,
    mtime_ns        INTEGER NOT NULL,
    size            INTEGER NOT NULL,
    source_sha      TEXT NOT NULL,
    content_hash    TEXT NOT NULL,
    npz_source_sha  TEXT,
    n_alternatives  INTEGER NOT NULL,
    n_attributes    INTEGER NOT NULL,
    ctime_ns        INTEGER,
    recorded_ns     INTEGER,
    component_json  TEXT
);
CREATE INDEX IF NOT EXISTS workspaces_by_content
    ON workspaces (content_hash);
CREATE TABLE IF NOT EXISTS results (
    content_hash     TEXT NOT NULL,
    config_hash      TEXT NOT NULL,
    sub_index        INTEGER NOT NULL,
    name             TEXT NOT NULL,
    n_alternatives   INTEGER NOT NULL,
    n_attributes     INTEGER NOT NULL,
    best_name        TEXT NOT NULL,
    best_minimum     REAL NOT NULL,
    best_average     REAL NOT NULL,
    best_maximum     REAL NOT NULL,
    ever_best        INTEGER,
    top5_fluctuation INTEGER,
    group_json       TEXT,
    PRIMARY KEY (content_hash, config_hash, sub_index)
);
CREATE TABLE IF NOT EXISTS quarantine (
    path           TEXT PRIMARY KEY,
    failures       INTEGER NOT NULL,
    last_error     TEXT NOT NULL,
    source_sha     TEXT NOT NULL,
    quarantined_ns INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS workspace_versions (
    path          TEXT NOT NULL,
    content_hash  TEXT NOT NULL,
    first_seen_ns INTEGER NOT NULL,
    tag           TEXT,
    PRIMARY KEY (path, content_hash)
);
CREATE INDEX IF NOT EXISTS workspace_versions_by_path
    ON workspace_versions (path, first_seen_ns);
"""

#: Nullable tail columns a legacy ``results`` table may predate; the
#: in-place migration adds whichever are missing via ``ALTER TABLE``.
_RESULT_TAIL_COLUMNS = (
    ("ever_best", "INTEGER"),
    ("top5_fluctuation", "INTEGER"),
    ("group_json", "TEXT"),
)

#: Nullable tail columns a pre-v3 ``workspaces`` table predates (ctime
#: fingerprint, recording timestamp, per-component hashes); migrated in
#: place the same way.
_WORKSPACE_TAIL_COLUMNS = (
    ("ctime_ns", "INTEGER"),
    ("recorded_ns", "INTEGER"),
    ("component_json", "TEXT"),
)


def eval_config_hash(options) -> str:
    """The cache key for an evaluation configuration.

    Hashes exactly the :class:`~repro.core.runtime.BatchOptions` fields
    that determine a run's *numbers* — ``objectives``, ``simulations``,
    (only when simulating) ``method`` and ``seed``, and (only for group
    runs) the member-roster digest.  The transport knob
    ``use_disk_cache`` and the worker/chunk layout never influence
    results (the PR 2 determinism contract), so they are deliberately
    excluded: the same registry evaluated with any worker count shares
    one cache entry.

    Parameters
    ----------
    options : object
        Anything with ``objectives`` / ``simulations`` / ``method`` /
        ``seed`` attributes, typically a
        :class:`~repro.core.runtime.BatchOptions`.

    Returns
    -------
    str
        Hex sha256 of the canonical configuration JSON.
    """
    simulations = int(getattr(options, "simulations", 0) or 0)
    payload = {
        "objectives": bool(getattr(options, "objectives", False)),
        "simulations": simulations,
        "method": getattr(options, "method", None) if simulations else None,
        "seed": getattr(options, "seed", None) if simulations else None,
        # pinned by the batch paths; recorded so a future knob cannot
        # silently alias old cache entries
        "sample_utilities": "missing" if simulations else None,
    }
    group = getattr(options, "group", None)
    if group:
        # The member-set digest: group runs are keyed by workspace
        # content AND the exact roster.  The key is only added when a
        # roster is present so every pre-group configuration keeps its
        # historical hash (old cache rows stay valid).
        from .group import members_digest

        payload["group"] = members_digest(group)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_index_path(paths: Sequence[Union[str, Path]]) -> Path:
    """Where a registry's index database lives by default.

    The deepest directory common to every workspace path, plus
    :data:`DEFAULT_INDEX_FILENAME` — so a flat registry directory keeps
    its index as a hidden sibling of the workspace files.

    Parameters
    ----------
    paths : sequence of str or Path
        The registry's workspace files (must be non-empty).

    Returns
    -------
    Path
        ``<common directory>/.repro-index.sqlite``.
    """
    if not paths:
        raise ValueError("default_index_path needs at least one path")
    dirs = {os.path.dirname(os.path.abspath(str(p))) for p in paths}
    return Path(os.path.commonpath(sorted(dirs))) / DEFAULT_INDEX_FILENAME


@dataclass(frozen=True)
class IndexedWorkspace:
    """One ``workspaces`` row: a workspace file's identity fingerprint.

    Attributes
    ----------
    path : str
        Absolute path of the workspace JSON (the row key).
    mtime_ns, size : int
        Stat fingerprint at index time; a match lets the next probe
        trust the stored hashes without reading the file.
    source_sha : str
        sha256 of the raw file bytes.
    content_hash : str
        sha256 of the canonical workspace JSON — the semantic key the
        ``results`` table and the ``.npz`` compile cache share.
    npz_source_sha : str or None
        The ``source_sha`` recorded inside the sibling ``.npz``
        compiled artifact when this row was derived (``None`` when the
        artifact was absent or stale at that moment).  Informational:
        freshness decisions always re-check the artifact itself.
    n_alternatives, n_attributes : int
        The stacking shape signature of the compiled problem.
    ctime_ns : int or None
        ``st_ctime_ns`` at index time — the third leg of the stat
        fingerprint (``None`` on rows recorded before schema v3).
    recorded_ns : int or None
        :func:`time.time_ns` when the row was (re)written, stamped by
        the upsert itself.  Drives the recording-window byte check;
        excluded from equality because it is bookkeeping, not identity.
    component_json : str or None
        Canonical per-component hash table
        (:func:`repro.core.workspace.component_json`) enabling delta
        compilation; ``None`` on legacy rows or when unknown, and on
        rows the in-process mirror serves (it is read per changed row).
        Excluded from equality: it is a function of ``content_hash``.
    """

    path: str
    mtime_ns: int
    size: int
    source_sha: str
    content_hash: str
    npz_source_sha: Optional[str]
    n_alternatives: int
    n_attributes: int
    ctime_ns: Optional[int] = None
    recorded_ns: Optional[int] = field(default=None, compare=False)
    component_json: Optional[str] = field(default=None, compare=False)


@dataclass(frozen=True)
class CachedResult:
    """One cached evaluation row (path- and registry-order-free).

    The persisted complement of
    :class:`~repro.core.runtime.WorkspaceResult`: everything except the
    registry ``index`` and the ``path``, which belong to a particular
    run and are re-applied at lookup time.  ``sub_index`` 0 is the
    whole workspace; higher values are its per-objective restrictions
    (``objectives`` runs).  ``ever_best`` / ``top5_fluctuation`` are
    ``None`` unless the configuration included a Monte Carlo;
    ``group_json`` is ``None`` unless it included a member roster (the
    canonical JSON of a
    :meth:`~repro.core.engine.GroupResult.to_payload`, stored as text
    so rankings and disagreement floats round-trip exactly).
    """

    sub_index: int
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


@dataclass(frozen=True)
class QuarantinedWorkspace:
    """One ``quarantine`` row: a workspace held out of evaluation.

    Attributes
    ----------
    path : str
        Absolute path of the quarantined workspace JSON.
    failures : int
        Dispatch failures accumulated before quarantine.
    last_error : str
        The failure that tipped the workspace over the threshold.
    source_sha : str
        sha256 of the file bytes at quarantine time (best effort,
        ``""`` when unreadable); a run whose current bytes hash
        differently releases the entry automatically — the operator
        presumably fixed the file.
    quarantined_ns : int
        :func:`time.time_ns` when the row was written.
    """

    path: str
    failures: int
    last_error: str
    source_sha: str
    quarantined_ns: int


@dataclass(frozen=True)
class ProbeEvidence:
    """What the freshness ladder knew when it stopped short of deriving.

    Returned by :meth:`RegistryIndex.examine` for a workspace whose
    stored hashes cannot be trusted, and consumed by
    :meth:`RegistryIndex.derive`.  ``st`` is the stat taken at the top
    of the ladder (the row's stat triple, whoever derives the
    identity); ``stored`` the previous row (``None`` for a new path);
    ``arrays`` the fresh compiled-artifact payload (``None`` when the
    artifact is absent or stale); ``source`` the ``(raw bytes,
    sha256)`` already read (``None`` when there was no stored row or
    artifact to check them against); ``stale_arrays`` the checksummed
    payload of an artifact that loaded but no longer matches the bytes
    — what a delta edit patches, so the artifact is read once.
    """

    path: str
    st: os.stat_result
    stored: Optional[IndexedWorkspace]
    arrays: Optional[Mapping[str, object]]
    source: Optional[Tuple[bytes, str]]
    stale_arrays: Optional[Mapping[str, object]] = None


_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError)

#: The ``workspaces`` columns the mirror keeps: every one except
#: ``component_json``, which only a changed row needs.
_MIRROR_COLUMNS = (
    "path, mtime_ns, size, source_sha, content_hash, npz_source_sha,"
    " n_alternatives, n_attributes, ctime_ns, recorded_ns,"
    " NULL AS component_json"
)


def _row_record(row: sqlite3.Row) -> IndexedWorkspace:
    """One ``workspaces`` row as an :class:`IndexedWorkspace`."""
    return IndexedWorkspace(
        path=row["path"],
        mtime_ns=row["mtime_ns"],
        size=row["size"],
        source_sha=row["source_sha"],
        content_hash=row["content_hash"],
        npz_source_sha=row["npz_source_sha"],
        n_alternatives=row["n_alternatives"],
        n_attributes=row["n_attributes"],
        ctime_ns=row["ctime_ns"],
        recorded_ns=row["recorded_ns"],
        component_json=row["component_json"],
    )


def _result_record(row: sqlite3.Row) -> CachedResult:
    """One ``results`` row as a :class:`CachedResult`."""
    return CachedResult(
        sub_index=row["sub_index"],
        name=row["name"],
        n_alternatives=row["n_alternatives"],
        n_attributes=row["n_attributes"],
        best_name=row["best_name"],
        best_minimum=row["best_minimum"],
        best_average=row["best_average"],
        best_maximum=row["best_maximum"],
        ever_best=row["ever_best"],
        top5_fluctuation=row["top5_fluctuation"],
        group_json=row["group_json"],
    )


class _Mirror:
    """An instance's in-process copy of its rows and their result sets.

    ``rows`` maps path to row (``component_json`` left out), ``refs``
    counts the rows per content hash, and ``results`` maps a content
    hash to ``{config_hash: row set}`` for referenced hashes only.
    Entries are immutable and replaced whole; the owning index mutates
    the mirror under its lock, readers only ``get``.
    """

    def __init__(self) -> None:
        """An empty mirror."""
        self.rows: Dict[str, IndexedWorkspace] = {}
        self.refs: Dict[str, int] = {}
        self.results: Dict[str, Dict[str, Tuple[CachedResult, ...]]] = {}

    def put_row(self, row: IndexedWorkspace) -> None:
        """Mirror one committed row; evicts what it stopped referencing."""
        old = self.rows.get(row.path)
        self.rows[row.path] = replace(row, component_json=None)
        self.refs[row.content_hash] = self.refs.get(row.content_hash, 0) + 1
        if old is not None:
            left = self.refs[old.content_hash] - 1
            if left:
                self.refs[old.content_hash] = left
            else:
                del self.refs[old.content_hash]
                self.results.pop(old.content_hash, None)

    def put_results(
        self,
        content_hash: str,
        config_hash: str,
        rows: Sequence[CachedResult],
    ) -> None:
        """Mirror one committed row set, if a mirrored row references it."""
        if content_hash in self.refs:
            sets = dict(self.results.get(content_hash, {}))
            sets[config_hash] = tuple(sorted(rows, key=lambda r: r.sub_index))
            self.results[content_hash] = sets


class RegistryIndex:
    """The sqlite system of record for one workspace registry.

    Opens (creating if needed) the database at ``db_path`` in WAL mode.
    Use as a context manager, or call :meth:`close` explicitly::

        with RegistryIndex(registry_dir / ".repro-index.sqlite") as index:
            report = ShardedRunner(workers=4).run(paths, index=index)

    All reads (:meth:`probe`, :meth:`lookup_results`, :meth:`status`)
    are side-effect free; all writes go through single-transaction
    methods (:meth:`record_run`, :meth:`build`, :meth:`vacuum`), so a
    crash can never leave a partially-recorded run.

    The instance is thread-safe for file-backed databases: every thread
    transparently uses its own connection to ``db_path`` (created on
    first use, all closed by :meth:`close`), so concurrent WAL readers
    never share a cursor with the single writer.  ``":memory:"`` paths
    are rejected — each per-thread connection would open a distinct
    empty database.  ``read_only`` is true when the database could not
    be opened for writing (see the module docstring).
    """

    def __init__(
        self, db_path: Union[str, Path], recover: bool = True
    ) -> None:
        """Open or create the index database at ``db_path``.

        A physically corrupt database (torn page, zeroed header) is not
        fatal: with ``recover`` (the default) the damaged file is moved
        aside to a ``.corrupt`` sibling, a fresh database is created in
        its place, and the rebuild is stamped into ``index_meta``
        (``last_rebuild_ns`` / ``rebuild_reason``, surfaced by
        :meth:`status` and ``repro index doctor``).  The index is
        derived data — losing it costs one warm-up run, never
        correctness.  ``recover=False`` re-raises instead, for callers
        that want to inspect the damage.
        """
        if str(db_path) == ":memory:":
            raise ValueError(
                "RegistryIndex needs a file-backed database; ':memory:' "
                "would give every thread its own empty index"
            )
        self.db_path = Path(db_path)
        self._local = threading.local()
        # thread ident -> (owning thread, its connection); dead owners
        # are reaped on the next connect so a thread-per-request server
        # cannot accumulate file descriptors
        self._connections: Dict[
            int, Tuple[threading.Thread, sqlite3.Connection]
        ] = {}
        self._connections_lock = threading.Lock()
        self._closed = False
        self._mirror: Optional[_Mirror] = None
        self._mirror_lock = threading.Lock()
        # sqlite URI of a read-only open; None opens the path read-write
        self._uri: Optional[str] = None
        self.read_only = not self._writable()
        try:
            if self.read_only:
                self._open_read_only()
            else:
                self._initialise_schema()
        except sqlite3.DatabaseError as exc:
            if (
                not recover
                or self.read_only
                or isinstance(exc, sqlite3.OperationalError)
            ):
                # OperationalError is environmental (locked, read-only,
                # bad path) — rebuilding would destroy a healthy index.
                self.close()
                raise
            detail = self._integrity_report()
            self._recover(f"open failed: {exc} (integrity: {detail})")
        except BaseException:
            self.close()
            raise

    def _writable(self) -> bool:
        """Whether sqlite may write the database and its WAL sidecars."""
        if not os.access(self.db_path.parent, os.W_OK):
            return False
        return not self.db_path.exists() or os.access(self.db_path, os.W_OK)

    def _open_read_only(self) -> None:
        """Open an unwritable database read-only and check its schema.

        ``mode=ro`` reads a WAL database only while its ``-wal`` and
        ``-shm`` sidecars exist; after a clean close they are gone and
        cannot be recreated, and then nothing can change the file, so
        it is opened ``immutable``.
        """
        uri = self.db_path.resolve().as_uri()
        self._uri = uri + "?mode=ro"
        try:
            stored = self._get_meta("schema_version")
        except sqlite3.OperationalError:
            if Path(str(self.db_path) + "-wal").exists():
                raise
            self._close_connections()
            self._uri = uri + "?immutable=1"
            stored = self._get_meta("schema_version")
        if stored != str(SCHEMA_VERSION):
            raise ValueError(
                f"read-only registry index {self.db_path} has schema "
                f"{stored!r}; expected {SCHEMA_VERSION!r} (it cannot be "
                "migrated in place)"
            )

    def _initialise_schema(self) -> None:
        """Create/verify the schema on this thread's connection."""
        conn = self._conn
        with conn:
            conn.executescript(_SCHEMA)
            self._migrate_schema()

    def _integrity_report(self) -> str:
        """Best-effort ``PRAGMA integrity_check`` summary of the db file."""
        try:
            conn = sqlite3.connect(self.db_path)
            try:
                rows = conn.execute("PRAGMA integrity_check").fetchall()
                return "; ".join(str(row[0]) for row in rows[:4])
            finally:
                conn.close()
        except sqlite3.Error as exc:
            return f"integrity_check failed: {exc}"

    def _recover(self, reason: str) -> Path:
        """Move the corrupt database aside and recreate it empty.

        The damaged file becomes a ``.corrupt`` sibling (kept for
        forensics; overwritten by the next recovery), WAL/SHM sidecars
        are dropped, and the fresh database records when and why it was
        rebuilt.  Returns the quarantined file's path.
        """
        self._close_connections()
        self._drop_mirror()
        target = self.db_path.with_name(self.db_path.name + ".corrupt")
        os.replace(self.db_path, target)
        for suffix in ("-wal", "-shm"):
            sidecar = Path(str(self.db_path) + suffix)
            try:
                sidecar.unlink()
            except OSError:
                pass
        self._initialise_schema()
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._set_meta("last_rebuild_ns", str(time.time_ns()))
            self._set_meta("rebuild_reason", reason)
            self._set_meta("corrupt_copy", str(target))
        _metrics.registry().counter(
            "repro_index_rebuilds_total",
            "Corrupt-index move-aside-and-rebuild recoveries.",
        ).inc()
        return target

    def _connect(self) -> sqlite3.Connection:
        """Open this thread's connection (pragmas applied) and cache it.

        ``check_same_thread=False`` only so :meth:`close` (and the
        dead-owner reap below) may close connections owned by other
        threads; each connection is used for queries exclusively by the
        thread that created it.
        """
        if self._uri is None:
            conn = sqlite3.connect(self.db_path, check_same_thread=False)
        else:
            conn = sqlite3.connect(
                self._uri, uri=True, check_same_thread=False
            )
        conn.row_factory = sqlite3.Row
        try:
            if self._uri is None:
                conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("PRAGMA busy_timeout=30000")
        except BaseException:
            conn.close()
            raise
        reaped: List[sqlite3.Connection] = []
        with self._connections_lock:
            if self._closed:
                conn.close()
                raise ValueError(f"registry index {self.db_path} is closed")
            for ident in [
                ident
                for ident, (owner, _) in self._connections.items()
                if not owner.is_alive()
            ]:
                reaped.append(self._connections.pop(ident)[1])
            self._connections[threading.get_ident()] = (
                threading.current_thread(),
                conn,
            )
        for dead in reaped:
            dead.close()
        self._local.conn = conn
        return conn

    @property
    def _conn(self) -> sqlite3.Connection:
        """The calling thread's connection, opened lazily."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
        return conn

    def _migrate_schema(self) -> None:
        """Bring a legacy database up to the current schema in place.

        Newer schema versions only *add* nullable columns/tables, so
        migration is a sequence of ``ALTER TABLE ... ADD COLUMN``
        statements: an index written before the group axis (schema 1),
        or before the v3 workspace fingerprints (``ctime_ns`` /
        ``recorded_ns`` / ``component_json``), opens cleanly —
        ``repro index status`` and every cache lookup keep working,
        existing rows untouched (their new columns read as ``NULL``,
        which every consumer treats as "unknown, verify the long way").
        Only a *newer* (or unparseable) recorded version is refused,
        since this code cannot know what it means.
        """
        row = self._conn.execute(
            "SELECT value FROM index_meta WHERE key = 'schema_version'"
        ).fetchone()
        stored: Optional[int] = None
        if row is not None:
            try:
                stored = int(row["value"])
            except ValueError:
                stored = -1
        if stored is not None and (stored > SCHEMA_VERSION or stored < 1):
            raise ValueError(
                f"unsupported registry index schema {row['value']!r} at "
                f"{self.db_path}; expected <= {SCHEMA_VERSION!r}"
            )
        for table, columns in (
            ("results", _RESULT_TAIL_COLUMNS),
            ("workspaces", _WORKSPACE_TAIL_COLUMNS),
        ):
            present = {
                info["name"]
                for info in self._conn.execute(
                    f"PRAGMA table_info({table})"
                )
            }
            for column, sql_type in columns:
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE {table} ADD COLUMN {column} {sql_type}"
                    )
        if stored is not None and stored < 5:
            # v5 adds the version-lineage table (created by the schema
            # script above); seed it with each workspace's current
            # content hash so histories start at the migration point.
            self._conn.execute(
                "INSERT OR IGNORE INTO workspace_versions"
                " (path, content_hash, first_seen_ns)"
                " SELECT path, content_hash, COALESCE(recorded_ns, 0)"
                " FROM workspaces"
            )
        if row is None:
            self._conn.execute(
                "INSERT INTO index_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
        elif stored != SCHEMA_VERSION:
            self._conn.execute(
                "UPDATE index_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION),),
            )

    def _get_meta(self, key: str) -> Optional[str]:
        """One ``index_meta`` value, or ``None`` when unset."""
        row = self._conn.execute(
            "SELECT value FROM index_meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row["value"]

    def _set_meta(self, key: str, value: str) -> None:
        """Upsert one ``index_meta`` value (caller owns the transaction)."""
        self._conn.execute(
            "INSERT OR REPLACE INTO index_meta (key, value) VALUES (?, ?)",
            (key, value),
        )

    def ping(self) -> bool:
        """Cheap liveness probe: can the database answer a query at all?

        Raises ``sqlite3.Error`` when it cannot — the service's
        ``/healthz`` maps that to a degraded report.
        """
        self._conn.execute("SELECT 1").fetchone()
        return True

    def check(self) -> Dict[str, object]:
        """Run ``PRAGMA integrity_check`` on the open database.

        Returns ``{"ok": bool, "findings": [...]}``; damage that the
        open itself did not trip (a zeroed interior page, say) shows up
        here.  ``repro index doctor`` rebuilds when this reports
        damage.
        """
        try:
            rows = self._conn.execute(
                "PRAGMA integrity_check"
            ).fetchall()
            findings = [str(row[0]) for row in rows]
        except sqlite3.DatabaseError as exc:
            findings = [f"{type(exc).__name__}: {exc}"]
        return {"ok": findings == ["ok"], "findings": findings}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _close_connections(self, closing: bool = False) -> None:
        """Close every per-thread connection (and refuse new ones)."""
        with self._connections_lock:
            self._closed = self._closed or closing
            connections, self._connections = self._connections, {}
        for _, conn in connections.values():
            conn.close()
        self._local.conn = None

    def close(self) -> None:
        """Close every per-thread sqlite connection and drop the mirror."""
        self._close_connections(closing=True)
        self._drop_mirror()

    def __enter__(self) -> "RegistryIndex":
        """Enter a ``with`` block; returns the open index."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the index on ``with`` block exit."""
        self.close()

    # ------------------------------------------------------------------
    # The in-process mirror
    # ------------------------------------------------------------------

    def _mirrored(self) -> _Mirror:
        """The mirror, filled by one bulk read on first use.

        The two reads share one sqlite snapshot, so every mirrored
        result set is complete.  A write committed while the fill runs
        is applied after it (:meth:`_publish` waits on the same lock);
        applying a row or set that the fill already read is harmless.
        """
        mirror = self._mirror
        if mirror is not None:
            return mirror
        with self._mirror_lock:
            if self._mirror is not None:
                return self._mirror
            conn = self._conn
            mirror = _Mirror()
            began = not conn.in_transaction
            if began:
                conn.execute("BEGIN")
            try:
                for row in conn.execute(
                    f"SELECT {_MIRROR_COLUMNS} FROM workspaces"
                ):
                    mirror.put_row(_row_record(row))
                sets: Dict[Tuple[str, str], List[CachedResult]] = {}
                for row in conn.execute(
                    "SELECT * FROM results WHERE content_hash IN"
                    " (SELECT content_hash FROM workspaces)"
                    " ORDER BY content_hash, config_hash, sub_index"
                ):
                    sets.setdefault(
                        (row["content_hash"], row["config_hash"]), []
                    ).append(_result_record(row))
            finally:
                if began:
                    conn.commit()
            for (content_hash, config_hash), rows in sets.items():
                mirror.put_results(content_hash, config_hash, rows)
            self._mirror = mirror
            return mirror

    def _publish(
        self,
        rows: Iterable[IndexedWorkspace] = (),
        results: Iterable[Tuple[str, str, Sequence[CachedResult]]] = (),
    ) -> None:
        """Apply this instance's just-committed writes to the mirror.

        Rows first, so a result set committed with the row that
        references it is mirrored too.  A row that brings a content
        hash the mirror did not reference (an edit reverted to earlier
        content, a copy) brings that hash's stored result sets along,
        one read per such hash.  Nothing to do before the first fill:
        that reads the committed state.
        """
        with self._mirror_lock:
            mirror = self._mirror
            if mirror is None:
                return
            added = []
            for row in rows:
                if row.content_hash not in mirror.refs:
                    added.append(row.content_hash)
                mirror.put_row(row)
            for content_hash, config_hash, sets in results:
                mirror.put_results(content_hash, config_hash, sets)
            for content_hash in added:
                if content_hash in mirror.results:
                    continue
                stored = self.result_sets(content_hash)
                for config_hash, sets in stored.items():
                    mirror.put_results(content_hash, config_hash, sets)

    def _drop_mirror(self) -> None:
        """Forget the mirror; the next read refills it from sqlite."""
        with self._mirror_lock:
            self._mirror = None

    # ------------------------------------------------------------------
    # Probing (read-only freshness ladder)
    # ------------------------------------------------------------------

    @staticmethod
    def _key(path: Union[str, Path]) -> str:
        return os.path.abspath(str(path))

    def _stored(self, key: str) -> Optional[IndexedWorkspace]:
        """The row for ``key``: mirrored, else read from sqlite.

        A mirrored row carries no ``component_json``
        (:meth:`_with_components` adds it); a row read on a miss is
        returned whole and not mirrored.
        """
        record = self._mirrored().rows.get(key)
        if record is not None:
            return record
        row = self._conn.execute(
            "SELECT * FROM workspaces WHERE path = ?", (key,)
        ).fetchone()
        return None if row is None else _row_record(row)

    def _with_components(
        self, record: Optional[IndexedWorkspace]
    ) -> Optional[IndexedWorkspace]:
        """``record`` with its stored ``component_json`` filled in.

        Read per row, and only while that path still carries the same
        content hash, so a component table can never be paired with
        another content's row.
        """
        if record is None or record.component_json is not None:
            return record
        row = self._conn.execute(
            "SELECT component_json FROM workspaces"
            " WHERE path = ? AND content_hash = ?",
            (record.path, record.content_hash),
        ).fetchone()
        if row is None or row["component_json"] is None:
            return record
        return replace(record, component_json=row["component_json"])

    def lookup_workspace(
        self, path: Union[str, Path]
    ) -> Optional[IndexedWorkspace]:
        """The stored row for one workspace path, exactly as indexed.

        Unlike :meth:`probe` this never touches the filesystem — it is
        the recorded identity (or ``None``), component table included.
        """
        return self._with_components(self._stored(self._key(path)))

    @staticmethod
    def fingerprint(
        path: Union[str, Path],
        st: os.stat_result,
        identity: _workspace.Identity,
        npz_source_sha: Optional[str] = None,
    ) -> IndexedWorkspace:
        """The row for a workspace whose content identity is known.

        The stat triple comes from ``st`` (taken *before* the identity
        was derived, so a later edit shows as a stat mismatch), the
        hashes and shape from ``identity`` — whether an artifact header,
        an :func:`~repro.core.workspace.ingest` in this process, or a
        pool worker supplied it.
        """
        return IndexedWorkspace(
            path=RegistryIndex._key(path),
            mtime_ns=st.st_mtime_ns,
            size=st.st_size,
            source_sha=identity.source_sha,
            content_hash=identity.content_hash,
            npz_source_sha=npz_source_sha,
            n_alternatives=identity.n_alternatives,
            n_attributes=identity.n_attributes,
            ctime_ns=st.st_ctime_ns,
            component_json=identity.component_json,
        )

    def derive(
        self, evidence: "ProbeEvidence", warm_artifact: bool = False
    ) -> Tuple[IndexedWorkspace, Optional[_workspace.Ingested]]:
        """Fingerprint a new/changed workspace from the ladder's evidence.

        A fresh artifact (``evidence.arrays``) supplies the hashes and
        shape from its header with no JSON parse.  Otherwise the
        workspace is ingested once
        (:func:`~repro.core.workspace.ingest`, reusing the bytes the
        ladder read); with ``warm_artifact`` the compiled arrays are
        also (re)persisted so the next batch run's workers mmap them (a
        failed write only leaves the row without an artifact sha).
        Returns ``(record, ingested)``: ``ingested`` is the parsed
        bundle when one was needed (``None`` from an artifact), so the
        caller can delta-compile without reading the file again.
        Content that does not ingest raises the ingest's error
        (``OSError``, ``ValueError``, ``KeyError`` or ``TypeError``),
        so a caller reports it without reading the file again.
        """
        if evidence.arrays is not None:
            identity = _workspace._artifact_identity(evidence.arrays)
            return (
                self.fingerprint(
                    evidence.path,
                    evidence.st,
                    identity,
                    npz_source_sha=identity.source_sha,
                ),
                None,
            )
        ingested = _workspace.ingest(evidence.path, evidence.source)
        npz_sha = None
        if warm_artifact and _workspace._persist_artifact(
            compile_problem(ingested.problem),
            _workspace.compiled_array_path(evidence.path),
            ingested,
        ):
            npz_sha = ingested.source_sha
        record = self.fingerprint(
            evidence.path, evidence.st, ingested.identity, npz_sha
        )
        return record, ingested

    def examine(
        self, path: Union[str, Path]
    ) -> Tuple[Optional[IndexedWorkspace], str, Optional["ProbeEvidence"]]:
        """Walk the freshness ladder up to, not into, derivation.

        Returns ``(record, status, evidence)``.  For ``"fresh"`` and
        ``"touched"`` the stored row settles it: ``record`` is set and
        ``evidence`` is ``None``.  For ``"new"`` and ``"changed"`` the
        stored hashes cannot be trusted: ``record`` is ``None`` and
        ``evidence`` carries what the ladder learned, for :meth:`derive`
        — or for a caller that derives the identity elsewhere (the
        batch runner hands a new, artifact-free workspace to the worker
        that compiles it).  ``"error"`` (file missing or unreadable)
        sets neither.  Read-only.
        """
        key = self._key(path)
        try:
            st = os.stat(key)
        except OSError:
            return None, "error", None
        stored = self._stored(key)
        stat_match = (
            stored is not None
            and stored.mtime_ns == st.st_mtime_ns
            and stored.size == st.st_size
            and stored.ctime_ns == st.st_ctime_ns
        )
        if stat_match:
            if not self._needs_byte_check(stored, st):
                return stored, "fresh", None
            # Recording-window byte check: only the raw-byte sha is in
            # question (the stat pair is current), so skip the artifact
            # probe entirely on the happy path.
            try:
                if _workspace._file_sha256(Path(key)) == stored.source_sha:
                    return stored, "fresh", None
            except OSError:
                return None, "error", None
        try:
            # One call supplies the artifact payload, whether it is fresh
            # under workspace.py's single freshness definition, and the
            # bytes it read to decide; a stored row needs them regardless.
            artifact, fresh, source = _workspace._load_artifact(Path(key))
            if source is None and stored is not None:
                source = _workspace._read_source(key)
        except OSError:
            return None, "error", None
        if stored is not None and stored.source_sha == source[1]:
            if stat_match:
                # recording-window byte check passed: the stat pair was
                # already current, nothing to persist
                return stored, "fresh", None
            return (
                replace(
                    stored,
                    mtime_ns=st.st_mtime_ns,
                    size=st.st_size,
                    ctime_ns=st.st_ctime_ns,
                ),
                "touched",
                None,
            )
        evidence = ProbeEvidence(
            path=key,
            st=st,
            stored=self._with_components(stored),
            arrays=artifact if fresh else None,
            source=source,
            stale_arrays=None if fresh else artifact,
        )
        return None, ("changed" if stored is not None else "new"), evidence

    @staticmethod
    def needs_restamp(stored: "IndexedWorkspace") -> bool:
        """Whether re-persisting this unchanged row would now help.

        A ``"fresh"`` probe of a row whose ``mtime`` falls inside the
        recording window was byte-verified (see :meth:`_needs_byte_check`);
        re-stamping it with "now" moves the row out of the window, so
        future probes take the pure stat fast path — but only once the
        file's ``mtime`` lies more than the window before "now".  Until
        then a new stamp would leave the row inside the window and the
        write would buy nothing.  A row already outside the window never
        needs one, so steady-state runs over an unchanged registry skip
        persisting it entirely.  Pure record inspection plus the clock;
        no filesystem or database access.
        """
        in_window = (
            stored.recorded_ns is None
            or stored.mtime_ns >= stored.recorded_ns - RECORDING_WINDOW_NS
        )
        return in_window and (
            stored.mtime_ns < time.time_ns() - RECORDING_WINDOW_NS
        )

    @staticmethod
    def _needs_byte_check(
        stored: IndexedWorkspace, st: os.stat_result
    ) -> bool:
        """Whether a stat-matching row must still verify raw bytes.

        The guard against mtime-preserving edits that even ``ctime``
        cannot see: when the file's ``mtime`` falls inside the window
        around the moment the row was recorded
        (:data:`RECORDING_WINDOW_NS`), a second write in the same
        filesystem timestamp tick could hide behind an identical stat
        triple — so the ``source_sha`` is re-verified.  Rows are
        re-stamped on every upsert, and a run re-stamps a quiet file
        once its ``mtime`` is more than the window old
        (:meth:`needs_restamp`), so it leaves the window and returns to
        the pure stat fast path.  Legacy (pre-v3) rows have no recording
        time and are always verified.
        """
        return (
            stored.recorded_ns is None
            or st.st_mtime_ns >= stored.recorded_ns - RECORDING_WINDOW_NS
        )

    def probe(
        self, path: Union[str, Path], warm_artifact: bool = False
    ) -> Tuple[Optional[IndexedWorkspace], str]:
        """``(record, status)``: :meth:`examine`, then :meth:`derive`.

        Read-only.  ``status`` is ``"fresh"`` (stat fingerprint
        matched), ``"touched"`` (bytes unchanged, stat updated),
        ``"changed"`` (content re-hashed), ``"new"`` (no stored row) or
        ``"error"`` (missing or unparseable; ``record`` is ``None``).
        Pass the record to :meth:`record_run` (or use :meth:`build`) to
        persist it.

        Parameters
        ----------
        path : str or Path
            Workspace JSON file.
        warm_artifact : bool, optional
            When the content had to be re-hashed from JSON, also
            compile and persist the ``.npz`` artifact (what
            ``repro index build`` does).
        """
        record, status, evidence = self.examine(path)
        if evidence is not None:
            try:
                record, _ = self.derive(evidence, warm_artifact)
            except _LOAD_ERRORS:
                return None, "error"
        return record, status

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    def lookup_results(
        self, content_hash: str, config_hash: str
    ) -> Optional[Tuple[CachedResult, ...]]:
        """The cached rows for one (content, configuration) pair.

        Returns the complete row set ordered by ``sub_index`` — one row
        for a plain run, ``1 + n_top_level_objectives`` rows for an
        ``objectives`` run — or ``None`` on a cache miss.  Row sets are
        written atomically, so a non-``None`` return is always complete.
        Served from the mirror when it holds the set; a miss reads
        sqlite (results are content-addressed, so a set another process
        wrote is as good as one this instance wrote).
        """
        rows = self._mirrored().results.get(content_hash, {}).get(config_hash)
        if rows is not None:
            return rows
        rows = self._conn.execute(
            "SELECT * FROM results WHERE content_hash = ? AND config_hash = ?"
            " ORDER BY sub_index",
            (content_hash, config_hash),
        ).fetchall()
        if not rows:
            return None
        return tuple(_result_record(row) for row in rows)

    def _upsert_workspace(self, record: IndexedWorkspace) -> IndexedWorkspace:
        """Write one row (caller owns the transaction); returns it stamped.

        ``recorded_ns`` is stamped here, at write time, regardless of
        what the record carries: every probed row was either
        byte-verified, derived fresh, or already outside the recording
        window (where the file's mtime tick lies in the past and cannot
        be reused by a later write) — so "observed now" is safe, and the
        stamp is what ages a row out of the window's byte check.  A
        record without ``component_json`` (a mirrored row re-stamped or
        touched) keeps the stored table while the content hash holds.
        """
        now = time.time_ns()
        self._conn.execute(
            "INSERT INTO workspaces"
            " (path, mtime_ns, size, source_sha, content_hash,"
            "  npz_source_sha, n_alternatives, n_attributes,"
            "  ctime_ns, recorded_ns, component_json)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
            " ON CONFLICT (path) DO UPDATE SET"
            " mtime_ns = excluded.mtime_ns, size = excluded.size,"
            " source_sha = excluded.source_sha,"
            " content_hash = excluded.content_hash,"
            " npz_source_sha = excluded.npz_source_sha,"
            " n_alternatives = excluded.n_alternatives,"
            " n_attributes = excluded.n_attributes,"
            " ctime_ns = excluded.ctime_ns,"
            " recorded_ns = excluded.recorded_ns,"
            " component_json = COALESCE(excluded.component_json,"
            "  CASE WHEN content_hash = excluded.content_hash"
            "  THEN component_json END)",
            (
                record.path,
                record.mtime_ns,
                record.size,
                record.source_sha,
                record.content_hash,
                record.npz_source_sha,
                record.n_alternatives,
                record.n_attributes,
                record.ctime_ns,
                now,
                record.component_json,
            ),
        )
        # Version lineage: the first sighting of each (path, content)
        # pair is appended once and never rewritten, so the history
        # records every distinct content this path has carried.
        self._conn.execute(
            "INSERT OR IGNORE INTO workspace_versions"
            " (path, content_hash, first_seen_ns) VALUES (?, ?, ?)",
            (record.path, record.content_hash, now),
        )
        return replace(record, recorded_ns=now)

    def record_run(
        self,
        records: Iterable[IndexedWorkspace],
        results: Optional[Mapping[str, Sequence[CachedResult]]] = None,
        config_hash: str = "",
    ) -> None:
        """Persist fingerprints and fresh results atomically.

        The index's one write: everything lands in one ``BEGIN
        IMMEDIATE`` transaction — every probed workspace row is
        upserted and, for each ``content_hash`` in ``results``, the old
        row set under ``config_hash`` is replaced by the new one.  A
        reader (or a crash) sees the index before or after the write,
        never in between.  A no-op on a read-only index.

        Without ``results`` it records fingerprints alone, for the
        reads that fingerprint workspaces without evaluating them: the
        query service's registry listing (which must also list files
        that parse but cannot be evaluated), a workspace read whose
        runner call failed, and ``repro registry pull``.  Every later
        probe of those files then takes the stat-fingerprint fast path
        instead of re-hashing them.

        Parameters
        ----------
        records : iterable of IndexedWorkspace
            Fingerprints from :meth:`probe` for this run's registry.
        results : mapping of str to sequence of CachedResult, optional
            Freshly evaluated row sets keyed by content hash.  Cached
            hits need not (and should not) be re-stored.
        config_hash : str, optional
            :func:`eval_config_hash` of the run's options; only read
            when ``results`` are given.
        """
        records = list(records)
        results = results or {}
        if self.read_only or not (records or results):
            return
        with _span("index.record_run", entries=len(results)), self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            stamped = [self._upsert_workspace(record) for record in records]
            for content_hash, rows in results.items():
                self._conn.execute(
                    "DELETE FROM results"
                    " WHERE content_hash = ? AND config_hash = ?",
                    (content_hash, config_hash),
                )
                self._conn.executemany(
                    "INSERT INTO results"
                    " (content_hash, config_hash, sub_index, name,"
                    "  n_alternatives, n_attributes, best_name,"
                    "  best_minimum, best_average, best_maximum,"
                    "  ever_best, top5_fluctuation, group_json)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            content_hash,
                            config_hash,
                            row.sub_index,
                            row.name,
                            row.n_alternatives,
                            row.n_attributes,
                            row.best_name,
                            row.best_minimum,
                            row.best_average,
                            row.best_maximum,
                            row.ever_best,
                            row.top5_fluctuation,
                            row.group_json,
                        )
                        for row in rows
                    ],
                )
        self._publish(
            stamped,
            [(key, config_hash, rows) for key, rows in results.items()],
        )

    # ------------------------------------------------------------------
    # Version lineage (schema v5)
    # ------------------------------------------------------------------

    def version_history(self, path: Union[str, Path]) -> List[Dict[str, object]]:
        """The content-hash lineage of one workspace path, oldest first.

        Each entry is ``{"content_hash", "first_seen_ns", "tag",
        "current", "n_result_sets"}`` — ``current`` marks the hash the
        ``workspaces`` row carries now, and ``n_result_sets`` counts
        the distinct evaluation configurations with cached rows for
        that content (the versions a ``?at=`` pinned read can serve).
        """
        key = self._key(path)
        current_row = self._conn.execute(
            "SELECT content_hash FROM workspaces WHERE path = ?", (key,)
        ).fetchone()
        current = None if current_row is None else current_row["content_hash"]
        return [
            {
                "content_hash": row["content_hash"],
                "first_seen_ns": row["first_seen_ns"],
                "tag": row["tag"],
                "current": row["content_hash"] == current,
                "n_result_sets": row["n_result_sets"],
            }
            for row in self._conn.execute(
                "SELECT v.content_hash, v.first_seen_ns, v.tag,"
                " (SELECT COUNT(DISTINCT config_hash) FROM results r"
                "   WHERE r.content_hash = v.content_hash) AS n_result_sets"
                " FROM workspace_versions v WHERE v.path = ?"
                " ORDER BY v.first_seen_ns, v.content_hash",
                (key,),
            )
        ]

    def tag_version(
        self, path: Union[str, Path], content_hash: str, tag: Optional[str]
    ) -> bool:
        """Attach (or clear, with ``None``) a tag on one lineage entry.

        Returns ``False`` when the ``(path, content_hash)`` pair has
        never been seen — the caller maps that to a 404.
        """
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            updated = self._conn.execute(
                "UPDATE workspace_versions SET tag = ?"
                " WHERE path = ? AND content_hash = ?",
                (tag, self._key(path), content_hash),
            ).rowcount
        return updated > 0

    def version_rows(
        self, path: Union[str, Path]
    ) -> List[Tuple[str, int, Optional[str]]]:
        """Raw ``(content_hash, first_seen_ns, tag)`` lineage rows.

        The export half of registry-to-registry sync; import them into
        another index with :meth:`import_versions`.
        """
        return [
            (row["content_hash"], row["first_seen_ns"], row["tag"])
            for row in self._conn.execute(
                "SELECT content_hash, first_seen_ns, tag"
                " FROM workspace_versions WHERE path = ?"
                " ORDER BY first_seen_ns, content_hash",
                (self._key(path),),
            )
        ]

    def import_versions(
        self,
        path: Union[str, Path],
        rows: Iterable[Tuple[str, int, Optional[str]]],
    ) -> int:
        """Merge exported lineage rows under ``path`` (skip existing).

        Existing ``(path, content_hash)`` entries keep their recorded
        first-seen time and tag.  Returns the number of rows added.
        """
        key = self._key(path)
        rows = list(rows)
        if not rows:
            return 0
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            added = 0
            for content_hash, first_seen_ns, tag in rows:
                added += self._conn.execute(
                    "INSERT OR IGNORE INTO workspace_versions"
                    " (path, content_hash, first_seen_ns, tag)"
                    " VALUES (?, ?, ?, ?)",
                    (key, content_hash, first_seen_ns, tag),
                ).rowcount
        return added

    # ------------------------------------------------------------------
    # Result-set export/import (registry-to-registry sync)
    # ------------------------------------------------------------------

    def result_sets(
        self, content_hash: str
    ) -> Dict[str, Tuple[CachedResult, ...]]:
        """Every cached row set for one content hash, by config hash.

        The export half of ``repro registry pull``: the returned
        mapping feeds :meth:`import_result_sets` on the destination
        index unchanged (floats round-trip exactly through sqlite
        ``REAL``, so the copy serves byte-identical bodies).  Always
        read from sqlite, so it exports what is stored, mirrored or not.
        """
        sets: Dict[str, List[CachedResult]] = {}
        for row in self._conn.execute(
            "SELECT * FROM results WHERE content_hash = ?"
            " ORDER BY config_hash, sub_index",
            (content_hash,),
        ):
            sets.setdefault(row["config_hash"], []).append(_result_record(row))
        return {config_hash: tuple(rows) for config_hash, rows in sets.items()}

    def import_result_sets(
        self,
        content_hash: str,
        sets: Mapping[str, Sequence[CachedResult]],
    ) -> Dict[str, int]:
        """Copy exported row sets in, skipping configs already cached.

        Skip-if-present by ``(content_hash, config_hash)``: an existing
        row set is never overwritten (both sides evaluated the same
        content deterministically, so the rows are interchangeable).
        One transaction; returns ``{"copied": ..., "skipped": ...}``.
        """
        copied = skipped = 0
        imported = []
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            for config_hash, rows in sorted(sets.items()):
                existing = self._conn.execute(
                    "SELECT 1 FROM results"
                    " WHERE content_hash = ? AND config_hash = ? LIMIT 1",
                    (content_hash, config_hash),
                ).fetchone()
                if existing is not None:
                    skipped += 1
                    continue
                self._conn.executemany(
                    "INSERT INTO results"
                    " (content_hash, config_hash, sub_index, name,"
                    "  n_alternatives, n_attributes, best_name,"
                    "  best_minimum, best_average, best_maximum,"
                    "  ever_best, top5_fluctuation, group_json)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            content_hash,
                            config_hash,
                            row.sub_index,
                            row.name,
                            row.n_alternatives,
                            row.n_attributes,
                            row.best_name,
                            row.best_minimum,
                            row.best_average,
                            row.best_maximum,
                            row.ever_best,
                            row.top5_fluctuation,
                            row.group_json,
                        )
                        for row in rows
                    ],
                )
                copied += 1
                imported.append((content_hash, config_hash, rows))
        self._publish(results=imported)
        return {"copied": copied, "skipped": skipped}

    # ------------------------------------------------------------------
    # Quarantine (crash-looping workspaces held out of evaluation)
    # ------------------------------------------------------------------

    def quarantine_map(self) -> Dict[str, QuarantinedWorkspace]:
        """Every quarantined workspace, keyed by absolute path."""
        return {
            row["path"]: QuarantinedWorkspace(
                path=row["path"],
                failures=row["failures"],
                last_error=row["last_error"],
                source_sha=row["source_sha"],
                quarantined_ns=row["quarantined_ns"],
            )
            for row in self._conn.execute(
                "SELECT path, failures, last_error, source_sha,"
                " quarantined_ns FROM quarantine"
            )
        }

    def record_quarantine(
        self, entries: Iterable[Tuple[str, int, str]]
    ) -> None:
        """Quarantine ``(path, failures, error)`` entries in one write.

        Stamps each entry with the file's current content hash (best
        effort) so a later edit releases it automatically, and with the
        quarantine time for operators.  A no-op on a read-only index.
        """
        if self.read_only:
            return
        rows = []
        now = time.time_ns()
        for path, failures, error in entries:
            key = self._key(path)
            try:
                sha = _workspace._file_sha256(Path(key))
            except OSError:
                sha = ""
            rows.append((key, int(failures), error, sha, now))
        if not rows:
            return
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "INSERT OR REPLACE INTO quarantine"
                " (path, failures, last_error, source_sha, quarantined_ns)"
                " VALUES (?, ?, ?, ?, ?)",
                rows,
            )

    def release_quarantine(
        self, paths: Optional[Iterable[Union[str, Path]]] = None
    ) -> int:
        """Release quarantined workspaces (all of them when unspecified).

        Returns the number of entries removed (none on a read-only
        index).
        """
        if self.read_only:
            return 0
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            if paths is None:
                removed = self._conn.execute(
                    "DELETE FROM quarantine"
                ).rowcount
            else:
                removed = 0
                for path in paths:
                    removed += self._conn.execute(
                        "DELETE FROM quarantine WHERE path = ?",
                        (self._key(path),),
                    ).rowcount
        return int(removed)

    # ------------------------------------------------------------------
    # Maintenance verbs (repro index build|status|vacuum|doctor)
    # ------------------------------------------------------------------

    def build(
        self,
        paths: Iterable[Union[str, Path]],
        warm_artifacts: bool = True,
    ) -> Dict[str, int]:
        """Index every workspace in ``paths``; returns probe-status counts.

        Probes each file (compiling and persisting missing/stale
        ``.npz`` artifacts when ``warm_artifacts``) and upserts all
        fingerprints in one transaction.  Unreadable files are counted
        under ``"error"`` and left out of the index.

        Returns
        -------
        dict
            ``{"fresh": ..., "touched": ..., "changed": ..., "new": ...,
            "error": ...}`` file counts.
        """
        counts = {"fresh": 0, "touched": 0, "changed": 0, "new": 0, "error": 0}
        records: List[IndexedWorkspace] = []
        for path in paths:
            record, status = self.probe(path, warm_artifact=warm_artifacts)
            counts[status] += 1
            if record is not None and status != "fresh":
                records.append(record)
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            stamped = [self._upsert_workspace(record) for record in records]
        self._publish(stamped)
        return counts

    def status(self) -> Dict[str, object]:
        """A snapshot of the index: row counts, disk freshness, size.

        Re-stats every indexed path (no hashing, no parsing) to report
        how much of the index is still current.

        Returns
        -------
        dict
            ``n_workspaces``, ``n_result_rows``, ``n_result_sets``
            (distinct ``(content_hash, config_hash)`` pairs),
            ``n_configs`` (distinct configurations),
            ``n_group_rows`` (rows carrying a cached group payload),
            ``result_bytes`` (total cached-result payload bytes: text
            columns at their stored length, numeric columns at 8 bytes
            each), ``fresh`` / ``stale`` / ``missing`` path counts,
            ``db_bytes``, plus the degraded-state view:
            ``n_quarantined`` (workspaces held out of evaluation),
            ``last_rebuild_ns`` / ``rebuild_reason`` (most recent
            corruption recovery, ``None`` when the database has never
            been rebuilt).
        """
        n_workspaces = self._conn.execute(
            "SELECT COUNT(*) FROM workspaces"
        ).fetchone()[0]
        n_rows = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        result_bytes = self._conn.execute(
            "SELECT COALESCE(SUM("
            " LENGTH(content_hash) + LENGTH(config_hash)"
            " + LENGTH(name) + LENGTH(best_name) + 8 * 8"
            " + COALESCE(LENGTH(group_json), 0)), 0)"
            " FROM results"
        ).fetchone()[0]
        n_group_rows = self._conn.execute(
            "SELECT COUNT(*) FROM results WHERE group_json IS NOT NULL"
        ).fetchone()[0]
        n_sets = self._conn.execute(
            "SELECT COUNT(*) FROM"
            " (SELECT DISTINCT content_hash, config_hash FROM results)"
        ).fetchone()[0]
        n_configs = self._conn.execute(
            "SELECT COUNT(DISTINCT config_hash) FROM results"
        ).fetchone()[0]
        fresh = stale = missing = 0
        for row in self._conn.execute(
            "SELECT path, mtime_ns, size FROM workspaces"
        ):
            try:
                st = os.stat(row["path"])
            except OSError:
                missing += 1
                continue
            if st.st_mtime_ns == row["mtime_ns"] and st.st_size == row["size"]:
                fresh += 1
            else:
                stale += 1
        try:
            db_bytes = os.path.getsize(self.db_path)
        except OSError:  # pragma: no cover - e.g. in-memory databases
            db_bytes = 0
        n_quarantined = self._conn.execute(
            "SELECT COUNT(*) FROM quarantine"
        ).fetchone()[0]
        last_rebuild = self._get_meta("last_rebuild_ns")
        return {
            "db_path": str(self.db_path),
            "n_workspaces": n_workspaces,
            "n_result_rows": n_rows,
            "n_result_sets": n_sets,
            "n_configs": n_configs,
            "n_group_rows": int(n_group_rows),
            "result_bytes": int(result_bytes),
            "fresh": fresh,
            "stale": stale,
            "missing": missing,
            "db_bytes": db_bytes,
            "n_quarantined": int(n_quarantined),
            "last_rebuild_ns": (
                int(last_rebuild) if last_rebuild is not None else None
            ),
            "rebuild_reason": self._get_meta("rebuild_reason"),
        }

    def vacuum(self) -> Dict[str, int]:
        """Drop dead rows and crash residue, then compact the database.

        Removes workspace rows whose file no longer exists, result row
        sets whose content hash is no longer referenced by any
        workspace row (results for *stale* content: the edited file now
        hashes differently), and stray ``.npz`` temp files a killed
        artifact writer left next to indexed workspaces
        (:func:`repro.core.workspace.sweep_temp_artifacts`).  Ends with
        sqlite ``VACUUM``.

        Returns
        -------
        dict
            ``{"workspaces_removed": ..., "result_rows_removed": ...,
            "temp_artifacts_removed": ...}``.
        """
        paths = [
            row["path"]
            for row in self._conn.execute("SELECT path FROM workspaces")
        ]
        gone = [path for path in paths if not os.path.isfile(path)]
        registry_dirs = {os.path.dirname(path) for path in paths}
        registry_dirs.add(str(self.db_path.parent))
        temp_removed = sum(
            _workspace.sweep_temp_artifacts(directory)
            for directory in sorted(registry_dirs)
            if os.path.isdir(directory)
        )
        with self._conn:
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.executemany(
                "DELETE FROM workspaces WHERE path = ?",
                [(path,) for path in gone],
            )
            self._conn.executemany(
                "DELETE FROM workspace_versions WHERE path = ?",
                [(path,) for path in gone],
            )
            removed = self._conn.execute(
                "DELETE FROM results WHERE content_hash NOT IN"
                " (SELECT content_hash FROM workspaces)"
            ).rowcount
        self._drop_mirror()
        self._conn.execute("VACUUM")
        return {
            "workspaces_removed": len(gone),
            "result_rows_removed": int(removed),
            "temp_artifacts_removed": int(temp_removed),
        }

    def doctor(
        self, paths: Sequence[Union[str, Path]]
    ) -> Dict[str, object]:
        """Diagnose and repair the index against its registry.

        Runs the full repair ladder:

        1. ``PRAGMA integrity_check`` — a damaged database is moved
           aside and rebuilt from scratch (same recovery the
           constructor applies when the damage blocks the open);
        2. re-index every registry path (:meth:`build`, compiling
           missing/stale ``.npz`` artifacts on the way, so corrupt
           artifacts are rewritten);
        3. re-probe quarantined workspaces and release the ones that
           load again (transient crashes heal; persistent poison
           stays held);
        4. sweep crashed writers' temp artifacts.

        Returns a report dict: ``integrity_ok``, ``rebuilt``,
        ``build_counts``, ``released`` / ``held`` (quarantine paths),
        ``temp_artifacts_removed``, ``last_rebuild_ns`` and
        ``rebuild_reason``.
        """
        self._drop_mirror()
        integrity = self.check()
        rebuilt = False
        if not integrity["ok"]:
            findings = "; ".join(integrity["findings"][:4])
            self._recover(f"doctor integrity_check: {findings}")
            rebuilt = True
        build_counts = self.build(paths, warm_artifacts=True)
        released: List[str] = []
        held: List[str] = []
        for path, row in sorted(self.quarantine_map().items()):
            record, status = self.probe(path, warm_artifact=True)
            if record is not None and status != "error":
                released.append(path)
            else:
                held.append(path)
        if released:
            self.release_quarantine(released)
        registry_dirs = {
            os.path.dirname(self._key(path)) for path in paths
        }
        registry_dirs.add(str(self.db_path.parent))
        temp_removed = sum(
            _workspace.sweep_temp_artifacts(directory)
            for directory in sorted(registry_dirs)
            if os.path.isdir(directory)
        )
        last_rebuild = self._get_meta("last_rebuild_ns")
        return {
            "integrity_ok": bool(integrity["ok"]),
            "rebuilt": rebuilt,
            "build_counts": build_counts,
            "released": released,
            "held": held,
            "temp_artifacts_removed": int(temp_removed),
            "last_rebuild_ns": (
                int(last_rebuild) if last_rebuild is not None else None
            ),
            "rebuild_reason": self._get_meta("rebuild_reason"),
        }

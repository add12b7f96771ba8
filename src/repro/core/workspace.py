"""GMAA-style workspace persistence.

GMAA keeps the whole analysis in a *workspace* (the title bar of Fig. 1
reads "Current Workspace: Multimedia").  This module serialises a
complete :class:`~repro.core.problem.DecisionProblem` — hierarchy,
scales, performances, component-utility classes and weight system — to
a single JSON document and restores it losslessly, so an analysis can
be saved, shared and re-opened exactly like a ``.gmaa`` file.

The format is versioned (``"format": "repro-workspace/1"``); loaders
reject unknown versions instead of guessing.  :func:`ingest` is the
one cold read: the bytes once (their sha256 is ``source_sha``), one
parse, and one :func:`to_dict` for the semantic ``content_hash`` and
the per-component table — the keys of every index row and compiled
artifact.

The compile cache also lives here (see ``docs/caching.md``):
persisted compiled-artifact siblings (flat checksummed files, still
named ``.npz``) keyed by raw-byte and semantic sha256
(:func:`load_compiled_fast`).  An artifact that cannot be written (a
read-only registry) is a cache miss, never an error.  The cross-run
*result* cache — the registry index — builds on the same
``content_hash`` and lives in :mod:`repro.core.index`.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..obs import metrics as _metrics
from ..obs import stage as _stage
from . import faults
from .engine import CompiledProblem, compile_problem, delta_compile
from .hierarchy import Hierarchy, ObjectiveNode
from .interval import Interval
from .performance import Alternative, PerformanceTable, UncertainValue
from .problem import DecisionProblem
from .scales import MISSING, ContinuousScale, DiscreteScale
from .utility import DiscreteUtility, PiecewiseLinearUtility
from .weights import WeightSystem

__all__ = [
    "to_dict",
    "from_dict",
    "save",
    "load",
    "Identity",
    "Ingested",
    "ingest",
    "FORMAT",
    "COMPILED_FORMAT",
    "content_hash",
    "compiled_array_path",
    "save_compiled_arrays",
    "load_compiled_arrays",
    "load_compiled_fast",
    "load_compiled_with_identity",
    "component_hashes",
    "component_json",
    "DeltaLoad",
    "load_compiled_delta",
    "sweep_temp_artifacts",
]

FORMAT = "repro-workspace/1"
COMPILED_FORMAT = "repro-compiled/3"


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _encode_interval(interval: Interval) -> List[float]:
    return [interval.lower, interval.upper]


def _encode_node(node: ObjectiveNode) -> Dict[str, Any]:
    encoded: Dict[str, Any] = {"name": node.name}
    if node.description:
        encoded["description"] = node.description
    if node.is_leaf:
        encoded["attribute"] = node.attribute
    else:
        encoded["children"] = [_encode_node(child) for child in node.children]
    return encoded


def _encode_scale(scale: object) -> Dict[str, Any]:
    if isinstance(scale, DiscreteScale):
        return {"kind": "discrete", "name": scale.name, "levels": list(scale.levels)}
    if isinstance(scale, ContinuousScale):
        return {
            "kind": "continuous",
            "name": scale.name,
            "minimum": scale.minimum,
            "maximum": scale.maximum,
            "ascending": scale.ascending,
            "unit": scale.unit,
        }
    raise TypeError(f"cannot encode scale of type {type(scale).__name__}")


def _encode_performance(value: object) -> Any:
    if value is MISSING:
        return {"kind": "missing"}
    if isinstance(value, UncertainValue):
        return {
            "kind": "uncertain",
            "minimum": value.minimum,
            "average": value.average,
            "maximum": value.maximum,
        }
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot encode performance {value!r}")
    return float(value)


def _encode_utility(fn: object) -> Dict[str, Any]:
    if isinstance(fn, DiscreteUtility):
        return {
            "kind": "discrete",
            "scale": fn.scale.name,
            "by_level": [_encode_interval(iv) for iv in fn.by_level],
            "missing": _encode_interval(fn.missing_utility),
        }
    if isinstance(fn, PiecewiseLinearUtility):
        return {
            "kind": "piecewise_linear",
            "scale": fn.scale.name,
            "knots": [[x, _encode_interval(iv)] for x, iv in fn.knots],
            "missing": _encode_interval(fn.missing_utility),
        }
    raise TypeError(f"cannot encode utility of type {type(fn).__name__}")


def to_dict(problem: DecisionProblem) -> Dict[str, Any]:
    """The JSON-ready representation of a whole decision problem."""
    scales = {
        attr: _encode_scale(problem.table.scale_of(attr))
        for attr in problem.table.attribute_names
    }
    alternatives = [
        {
            "name": alt.name,
            "description": alt.description,
            "performances": {
                attr: _encode_performance(alt.performance(attr))
                for attr in problem.table.attribute_names
            },
        }
        for alt in problem.table.alternatives
    ]
    weights = {
        node.name: _encode_interval(problem.weights.local_interval(node.name))
        for node in problem.hierarchy.nodes()
        if node.name != problem.hierarchy.root.name
    }
    return {
        "format": FORMAT,
        "name": problem.name,
        "hierarchy": _encode_node(problem.hierarchy.root),
        "scales": scales,
        "alternatives": alternatives,
        "utilities": {
            attr: _encode_utility(problem.utility_function(attr))
            for attr in problem.attribute_names
        },
        "weights": weights,
    }


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def _decode_interval(data: Any) -> Interval:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ValueError(f"expected [lower, upper], got {data!r}")
    return Interval(float(data[0]), float(data[1]))


def _decode_node(data: Mapping[str, Any]) -> ObjectiveNode:
    children = [_decode_node(child) for child in data.get("children", [])]
    return ObjectiveNode(
        name=data["name"],
        children=children,
        attribute=data.get("attribute"),
        description=data.get("description", ""),
    )


def _decode_scale(data: Mapping[str, Any]) -> object:
    kind = data.get("kind")
    if kind == "discrete":
        return DiscreteScale(data["name"], tuple(data["levels"]))
    if kind == "continuous":
        return ContinuousScale(
            data["name"],
            float(data["minimum"]),
            float(data["maximum"]),
            bool(data.get("ascending", True)),
            data.get("unit", ""),
        )
    raise ValueError(f"unknown scale kind {kind!r}")


def _decode_performance(data: Any) -> object:
    if isinstance(data, Mapping):
        kind = data.get("kind")
        if kind == "missing":
            return MISSING
        if kind == "uncertain":
            return UncertainValue(
                float(data["minimum"]), float(data["average"]), float(data["maximum"])
            )
        raise ValueError(f"unknown performance kind {kind!r}")
    return float(data)


def _decode_utility(data: Mapping[str, Any], scale: object) -> object:
    kind = data.get("kind")
    missing = _decode_interval(data.get("missing", [0.0, 1.0]))
    if kind == "discrete":
        if not isinstance(scale, DiscreteScale):
            raise ValueError(
                f"discrete utility declared over non-discrete scale {data['scale']!r}"
            )
        return DiscreteUtility(
            scale,
            tuple(_decode_interval(iv) for iv in data["by_level"]),
            missing,
        )
    if kind == "piecewise_linear":
        if not isinstance(scale, ContinuousScale):
            raise ValueError(
                "piecewise-linear utility declared over non-continuous scale "
                f"{data['scale']!r}"
            )
        return PiecewiseLinearUtility(
            scale,
            tuple((float(x), _decode_interval(iv)) for x, iv in data["knots"]),
            missing,
        )
    raise ValueError(f"unknown utility kind {kind!r}")


def from_dict(data: Mapping[str, Any]) -> DecisionProblem:
    """Rebuild a decision problem from :func:`to_dict` output."""
    if data.get("format") != FORMAT:
        raise ValueError(
            f"unsupported workspace format {data.get('format')!r}; "
            f"expected {FORMAT!r}"
        )
    hierarchy = Hierarchy(_decode_node(data["hierarchy"]))
    scales = {attr: _decode_scale(s) for attr, s in data["scales"].items()}
    alternatives = [
        Alternative(
            alt["name"],
            {a: _decode_performance(v) for a, v in alt["performances"].items()},
            alt.get("description", ""),
        )
        for alt in data["alternatives"]
    ]
    table = PerformanceTable(scales, alternatives)
    utilities = {
        attr: _decode_utility(u, scales[attr])
        for attr, u in data["utilities"].items()
    }
    weights = WeightSystem(
        hierarchy,
        {name: _decode_interval(iv) for name, iv in data["weights"].items()},
    )
    return DecisionProblem(
        hierarchy, table, utilities, weights, name=data.get("name", "workspace")
    )


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------

def save(problem: DecisionProblem, path: Union[str, Path]) -> None:
    """Write the workspace JSON for ``problem`` to ``path``."""
    path = Path(path)
    path.write_text(json.dumps(to_dict(problem), indent=2, sort_keys=True))


def load(
    path: Union[str, Path], raw: Optional[bytes] = None
) -> DecisionProblem:
    """Read a workspace JSON written by :func:`save`.

    ``raw`` supplies the file's bytes when the caller already read them
    (:func:`ingest` does, so the bytes it hashes are the bytes parsed).
    """
    if raw is None:
        raw = Path(path).read_bytes()
    return from_dict(json.loads(raw))


def _canonical(payload: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Persisted compiled artifacts (a flat file next to the workspace JSON)
# ----------------------------------------------------------------------
#
# A batch run (:mod:`repro.core.runtime`) cold-starts its worker
# processes, each of which would otherwise re-parse and re-compile
# every workspace JSON.  Persisting the compiled dense arrays as a
# sibling of the workspace file turns that cold start into an ``mmap``
# of ready-to-use tensors:
#
# * the artifact is **keyed by content**: it stores the semantic
#   content hash (sha256 of the canonical workspace JSON) plus the
#   sha256 of the raw source file bytes.  A byte-level match of the
#   source file proves freshness without parsing any JSON; any
#   mismatch falls back to compile-from-JSON and rewrites the artifact;
# * writes are **atomic** (temp file + ``os.replace``), so concurrent
#   writers — e.g. several shard workers warming the same registry —
#   can race freely: readers only ever see a complete artifact and
#   writers of equal content produce identical bytes;
# * the file is **one flat buffer** — magic, checksum, a canonical JSON
#   header, then raw C-order arrays at 64-byte-aligned offsets — so a
#   load is one ``mmap`` plus ``np.frombuffer`` views, and fork-based
#   worker pools share pages instead of materialising per-process
#   copies.  The file keeps the ``.npz`` name so registries written by
#   older versions heal in place: an old zip fails the magic check,
#   misses and is overwritten, leaving no orphan behind;
# * a write that fails (a read-only registry, a full disk) is counted
#   in ``repro_artifact_write_errors_total`` and otherwise ignored: the
#   compiled form is still returned and the next run simply misses
#   again (:func:`_persist_artifact`).

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

#: Identity metadata carried in the artifact header next to the
#: array layout; :func:`load_compiled_arrays` returns each under its
#: own key.
_ARTIFACT_METADATA = (
    "problem_name",
    "attribute_names",
    "alternative_names",
    "source_sha",
    "content_hash",
    "component_json",
)

_ARTIFACT_MAGIC = b"\x93RPRCMP\n"
#: Byte length of magic + 64-hex ``payload_sha`` + 8-byte header length.
_ARTIFACT_PREFIX = len(_ARTIFACT_MAGIC) + 64 + 8
_ARTIFACT_ALIGN = 64
#: The only dtypes a compiled form lowers to (float64, int64, bool).
_ARTIFACT_DTYPES = ("<f8", "<i8", "|b1")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_hash(problem: DecisionProblem) -> str:
    """sha256 of the canonical workspace JSON — the semantic cache key."""
    return _sha256(_canonical(to_dict(problem)))


def _component_table(data: Mapping[str, Any]) -> Dict[str, str]:
    """:func:`component_hashes` of an already-built :func:`to_dict`."""
    hashes = {
        "structure": _sha256(
            _canonical(
                {
                    "format": data["format"],
                    "hierarchy": data["hierarchy"],
                    "scales": data["scales"],
                    "utilities": data["utilities"],
                    "alternative_names": [
                        alt["name"] for alt in data["alternatives"]
                    ],
                }
            )
        ),
        "name": _sha256(_canonical(data["name"])),
    }
    for alt in data["alternatives"]:
        hashes[f"alt:{alt['name']}"] = _sha256(_canonical(alt))
        hashes[f"row:{alt['name']}"] = _sha256(_canonical(alt["performances"]))
    for node, interval in data["weights"].items():
        hashes[f"weight:{node}"] = _sha256(_canonical(interval))
    return hashes


def component_hashes(problem: DecisionProblem) -> Dict[str, str]:
    """Per-component sha256 fingerprints of a decision problem.

    The sub-problem counterpart of :func:`content_hash`: instead of one
    hash over the whole workspace, every independently editable piece
    gets its own digest so an edit can be localised —

    ``"structure"``
        format, objective hierarchy, scales, component utilities and
        the ordered alternative-name list.  If this changes, the dense
        array shapes or utility-class tensors may change and delta
        compilation is off the table.
    ``"name"``
        the workspace's display name.
    ``"alt:<name>"``
        one alternative's full entry (description included).
    ``"row:<name>"``
        one alternative's performance row only — the component that
        drives which :func:`~repro.core.engine.delta_compile` rows are
        re-lowered.
    ``"weight:<node>"``
        one objective node's local weight interval.
    """
    return _component_table(to_dict(problem))


def component_json(problem: DecisionProblem) -> str:
    """Canonical JSON text of :func:`component_hashes`.

    This is what the registry index stores per workspace row (schema
    v3) and what compiled artifacts carry, so a later run can
    diff components without re-hashing the old problem.
    """
    return _canonical(component_hashes(problem))


def compiled_array_path(path: Union[str, Path]) -> Path:
    """The ``.npz`` compiled-artifact sibling of a workspace JSON file."""
    return Path(path).with_suffix(".npz")


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_source(path: Union[str, Path]) -> Tuple[bytes, str]:
    """A workspace file's raw bytes and their sha256, from one read."""
    raw = Path(path).read_bytes()
    return raw, hashlib.sha256(raw).hexdigest()


@dataclass(frozen=True)
class Identity:
    """What the registry index records about one workspace's content.

    The stat-free half of an index row: raw-byte sha, semantic content
    hash, per-component table and stacking shape.  Small and picklable,
    so a pool worker that ingested (or mmapped) a workspace ships it
    home with the chunk's results.
    """

    source_sha: str
    content_hash: str
    component_json: Optional[str]
    n_alternatives: int
    n_attributes: int


@dataclass(frozen=True)
class Ingested:
    """One workspace file read once: the problem and its fingerprints.

    Everything :func:`ingest` derives from a single read, parse and
    :func:`to_dict` — ``components`` is the :func:`component_hashes`
    table and ``component_json`` its canonical text.
    """

    problem: DecisionProblem
    source_sha: str
    content_hash: str
    components: Dict[str, str]
    component_json: str

    @property
    def identity(self) -> Identity:
        """The index-facing fingerprint of the ingested file."""
        return Identity(
            source_sha=self.source_sha,
            content_hash=self.content_hash,
            component_json=self.component_json,
            n_alternatives=len(self.problem.alternative_names),
            n_attributes=len(self.problem.attribute_names),
        )


def ingest(
    path: Union[str, Path], source: Optional[Tuple[bytes, str]] = None
) -> Ingested:
    """Read, parse and fingerprint one workspace file in a single pass.

    The bytes are read once and ``source_sha`` is their sha256, so the
    fingerprints always describe exactly the bytes that were parsed.
    One :func:`to_dict` feeds both the content hash and the component
    table; both are bit-identical to :func:`content_hash` and
    :func:`component_json` of the parsed problem.  ``source`` passes a
    ``(raw bytes, sha256)`` pair the caller already read (the index's
    freshness ladder does), so the file is not read a second time.
    Raises what :func:`load` raises for an unreadable or invalid file.
    """
    raw, source_sha = source if source is not None else (None, None)
    with _stage("workspace.parse"):
        if raw is None:
            raw = Path(path).read_bytes()
        problem = load(path, raw)
    with _stage("workspace.hash"):
        if source_sha is None:
            source_sha = hashlib.sha256(raw).hexdigest()
        data = to_dict(problem)
        components = _component_table(data)
        return Ingested(
            problem=problem,
            source_sha=source_sha,
            content_hash=_sha256(_canonical(data)),
            components=components,
            component_json=_canonical(components),
        )


def save_compiled_arrays(
    compiled: CompiledProblem,
    npz_path: Union[str, Path],
    source_sha: str,
    semantic_hash: str,
    component_json: Optional[str] = None,
) -> Path:
    """Atomically persist a compiled form as one flat artifact file.

    Layout: an 8-byte magic, the 64-hex ``payload_sha``, an 8-byte
    little-endian header length, the canonical JSON header (format,
    :data:`_ARTIFACT_METADATA` and ``[dtype, shape, offset]`` per
    :data:`_ARRAY_FIELDS`), then the raw C-order arrays at 64-byte-
    aligned offsets counted from the 64-byte-aligned end of the header.
    ``payload_sha`` is the sha256 of every byte after it and is
    re-derived on every load, so a truncated, torn or bit-rotted
    artifact reads as a cache miss.

    The write goes to a unique temp file in the target directory and is
    published with ``os.replace``, so a reader can never observe a
    partially-written artifact and the last concurrent writer wins with
    a complete file.  The temp file is unlinked on *every* failure path
    (including a failed replace); residue from a killed process is
    swept by :func:`sweep_temp_artifacts` / ``repro index vacuum``.

    ``component_json`` optionally embeds the per-component fingerprint
    table (:func:`component_json`) so index probes that trust the
    artifact can pick up sub-problem hashes without parsing the source
    JSON.  The write is timed as the ``artifact.write`` stage.
    """
    with _stage("artifact.write"):
        npz_path = Path(npz_path)
        layout: Dict[str, List[Any]] = {}
        chunks: List[bytes] = []
        offset = 0
        for field in _ARRAY_FIELDS:
            arr = np.ascontiguousarray(getattr(compiled, field))
            if arr.dtype.kind == "i":
                arr = arr.astype(np.int64)
            pad = -offset % _ARTIFACT_ALIGN
            chunks += [bytes(pad), arr.tobytes()]
            offset += pad
            layout[field] = [arr.dtype.str, list(arr.shape), offset]
            offset += arr.nbytes
        header = json.dumps(
            {
                "format": COMPILED_FORMAT,
                "problem_name": compiled.name,
                "attribute_names": list(compiled.attribute_names),
                "alternative_names": list(compiled.alternative_names),
                "source_sha": source_sha,
                "content_hash": semantic_hash,
                "component_json": component_json,
                "arrays": layout,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        header_end = _ARTIFACT_PREFIX + len(header)
        body = b"".join(
            [
                len(header).to_bytes(8, "little"),
                header,
                bytes(-header_end % _ARTIFACT_ALIGN),
                *chunks,
            ]
        )
        digest = hashlib.sha256(body).hexdigest()
        tmp_path = npz_path.with_name(
            f".{npz_path.name}.tmp.{os.getpid()}.{id(body):x}"
        )
        try:
            with open(tmp_path, "wb") as fh:
                fh.write(_ARTIFACT_MAGIC + digest.encode("ascii") + body)
            os.replace(tmp_path, npz_path)
        finally:
            try:
                tmp_path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - directory-level failures
                pass
        return npz_path


#: Glob matching the temp names :func:`save_compiled_arrays` writes
#: (``.{name}.npz.tmp.{pid}.{token}``) — what a crashed writer leaves
#: behind and :func:`sweep_temp_artifacts` removes.
_TEMP_ARTIFACT_GLOB = ".*.npz.tmp.*"


def sweep_temp_artifacts(directory: Union[str, Path]) -> int:
    """Remove stray compiled-artifact temp files under ``directory``.

    An ``os.replace`` publish can never leave a partial ``.npz``, but a
    writer killed between temp creation and replace leaves its
    dot-prefixed temp file behind forever.  This sweeps every such
    sibling (recursively) and returns the number removed.  Run it from
    ``repro index vacuum``; it assumes no artifact writer is active
    concurrently.
    """
    removed = 0
    for tmp in sorted(Path(directory).rglob(_TEMP_ARTIFACT_GLOB)):
        if not tmp.is_file():
            continue
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - raced or permission-denied
            continue
        removed += 1
    return removed


def load_compiled_arrays(
    npz_path: Union[str, Path],
) -> Optional[Dict[str, Any]]:
    """Read a compiled artifact: one ``mmap``, arrays as read-only views.

    Returns the :data:`_ARRAY_FIELDS` arrays plus ``format``,
    ``payload_sha`` and the :data:`_ARTIFACT_METADATA` values, or
    ``None`` for a missing, unreadable, wrong-format or corrupt file —
    the caller treats that exactly like a cache miss and recompiles
    from the workspace JSON.  The recorded ``payload_sha`` must match,
    and even a checksummed header must name every array field with an
    allowed dtype, non-negative integer dimensions and an extent inside
    the file, so a damaged artifact can never reach evaluation.
    """
    npz_path = Path(npz_path)
    if not npz_path.is_file():
        return None
    try:
        plan = faults.active()
        if plan is not None:
            plan.strike("artifact_read", str(npz_path))
        with open(npz_path, "rb") as fh:
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        magic_end = len(_ARTIFACT_MAGIC)
        if buf[:magic_end] != _ARTIFACT_MAGIC:
            return None
        payload_sha = buf[magic_end:magic_end + 64].decode("ascii")
        body = memoryview(buf)[magic_end + 64:]
        if hashlib.sha256(body).hexdigest() != payload_sha:
            return None
        header_end = _ARTIFACT_PREFIX + int.from_bytes(body[:8], "little")
        header = json.loads(buf[_ARTIFACT_PREFIX:header_end])
        if header["format"] != COMPILED_FORMAT:
            return None
        arrays = {key: header[key] for key in _ARTIFACT_METADATA}
        arrays.update(format=COMPILED_FORMAT, payload_sha=payload_sha)
        data_start = header_end + (-header_end % _ARTIFACT_ALIGN)
        for field in _ARRAY_FIELDS:
            dtype, shape, offset = header["arrays"][field]
            # np.frombuffer bounds-checks the extent against the end of
            # the mapping, but count=-1 silently reads to the end of it
            # and a negative offset lands in the header, so both are
            # checked explicitly
            if (
                dtype not in _ARTIFACT_DTYPES
                or not all(type(n) is int and n >= 0 for n in shape)
                or offset < 0
            ):
                return None
            arrays[field] = np.frombuffer(
                buf,
                dtype=dtype,
                count=math.prod(shape),
                offset=data_start + offset,
            ).reshape(shape)
        return arrays
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _compiled_from_arrays(arrays: Mapping[str, Any]) -> CompiledProblem:
    return CompiledProblem.from_arrays(
        name=str(arrays["problem_name"]),
        attribute_names=[str(a) for a in arrays["attribute_names"]],
        alternative_names=[str(a) for a in arrays["alternative_names"]],
        u_low=arrays["u_low"],
        u_avg=arrays["u_avg"],
        u_up=arrays["u_up"],
        missing=arrays["missing"],
        w_low=arrays["w_low"],
        w_avg=arrays["w_avg"],
        w_up=arrays["w_up"],
        key_low=arrays["key_low"],
        key_up=arrays["key_up"],
        key_count=arrays["key_count"],
        alt_key=arrays["alt_key"],
    )


def _artifact_identity(arrays: Mapping[str, Any]) -> Identity:
    """The :class:`Identity` a compiled artifact's header records."""
    n_alternatives, n_attributes = arrays["u_avg"].shape
    components = arrays.get("component_json")
    return Identity(
        source_sha=str(arrays["source_sha"]),
        content_hash=str(arrays["content_hash"]),
        component_json=None if components is None else str(components),
        n_alternatives=int(n_alternatives),
        n_attributes=int(n_attributes),
    )


def _load_artifact(
    path: Path,
) -> Tuple[Optional[Dict[str, Any]], bool, Optional[Tuple[bytes, str]]]:
    """(arrays, fresh, source) for one workspace file's artifact.

    The single definition of artifact freshness: the artifact is usable
    iff it loads and its recorded ``source_sha`` matches the current
    raw bytes of the workspace JSON.  ``arrays`` is the checksummed
    payload whether fresh or stale (a stale one is what a delta edit
    patches); ``source`` is the ``(raw bytes, sha256)`` pair read to
    decide, for the caller to reuse.  Both are ``None`` when no
    artifact loaded, in which case the workspace file was not read.
    """
    arrays = load_compiled_arrays(compiled_array_path(path))
    if arrays is None:
        return None, False, None
    source = _read_source(path)
    return arrays, str(arrays.get("source_sha")) == source[1], source


def _persist_artifact(
    compiled: CompiledProblem, npz_path: Path, ingested: Ingested
) -> bool:
    """Write ``compiled``'s artifact; ``False`` when the write failed.

    The artifact is a cache, so an ``OSError`` from the write is a
    miss, not a failed workspace: it is counted once in
    ``repro_artifact_write_errors_total`` and swallowed.
    """
    try:
        save_compiled_arrays(
            compiled,
            npz_path,
            ingested.source_sha,
            ingested.content_hash,
            component_json=ingested.component_json,
        )
    except OSError:
        _metrics.registry().counter(
            "repro_artifact_write_errors_total",
            "Compiled-artifact writes that failed (the compiled form "
            "was kept; the next run misses again).",
        ).inc()
        return False
    return True


def _compile_and_persist(
    path: Path,
    npz_path: Path,
    source: Optional[Tuple[bytes, str]] = None,
) -> Tuple[CompiledProblem, Ingested]:
    """Ingest a workspace, lower it and atomically (re)write its artifact.

    The one cold compile, timed as the ``workspace.compile`` stage with
    ``workspace.parse`` and ``workspace.hash`` (:func:`ingest`),
    ``workspace.lower`` and ``artifact.write`` nested inside it.
    Returns the compiled form and the :class:`Ingested` bundle it came
    from, whether or not the artifact write succeeded.
    """
    with _stage("workspace.compile", path=str(path)):
        ingested = ingest(path, source)
        with _stage("workspace.lower"):
            compiled = compile_problem(ingested.problem)
        _persist_artifact(compiled, npz_path, ingested)
        return compiled, ingested


def load_compiled_with_identity(
    path: Union[str, Path],
) -> Tuple[CompiledProblem, Identity]:
    """:func:`load_compiled_fast` plus the workspace's :class:`Identity`.

    The identity costs nothing extra: a fresh artifact's header records
    it, and a compile derives it from the same :func:`ingest` that
    parsed the file.
    """
    path = Path(path)
    arrays, fresh, source = _load_artifact(path)
    if fresh:
        return _compiled_from_arrays(arrays), _artifact_identity(arrays)
    compiled, ingested = _compile_and_persist(
        path, compiled_array_path(path), source
    )
    return compiled, ingested.identity


def load_compiled_fast(path: Union[str, Path]) -> CompiledProblem:
    """Load a workspace's compiled form, via the ``.npz`` artifact.

    Fast path: when the sibling artifact exists and its recorded source
    hash matches the current JSON bytes, the compiled arrays come
    straight off disk (mmapped) — no JSON parse, no object graph, no
    utility evaluation.  Otherwise the workspace is compiled from JSON
    and the artifact is (re)written atomically.
    The returned compiled form carries ``problem=None`` on the fast
    path; callers needing the object graph parse the JSON explicitly.
    """
    return load_compiled_with_identity(path)[0]


@dataclass(frozen=True)
class DeltaLoad:
    """One successful delta (re)compilation of an edited workspace.

    ``compiled`` is the patched compiled form, with the ingested
    problem attached; ``changed_rows`` are the positions, in the
    alternative list, of the rows the edit changed.
    """

    compiled: CompiledProblem
    changed_rows: Tuple[int, ...]


def load_compiled_delta(
    path: Union[str, Path],
    old_content_hash: str,
    old_component_json: Optional[str],
    ingested: Ingested,
    arrays: Mapping[str, Any],
) -> Optional[DeltaLoad]:
    """Delta-compile an edited workspace against its stale artifact.

    The incremental fast path for a workspace whose content hash
    changed: verify that the stale artifact payload ``arrays`` still
    matches the *old* indexed state, diff the old per-component hashes
    against those of ``ingested`` (the edited file's :func:`ingest`
    bundle) and patch only the changed rows via
    :func:`~repro.core.engine.delta_compile`.  Nothing is read or
    parsed here: the batch runner hands over the bundle its probe
    ingested and the artifact payload the index's freshness ladder
    loaded and checksummed.  The rewritten artifact is published
    atomically so subsequent runs take the plain fast path; a failed
    write leaves the patched form valid.

    Returns ``None`` whenever delta compilation is not safe or not
    possible — an artifact of other content, missing or unparsable
    component fingerprints, or a structural edit (hierarchy, scales,
    utilities, alternative set/order) — in which case the caller lowers
    the ingested problem in full.
    """
    path = Path(path)
    try:
        old_components = json.loads(old_component_json or "")
    except ValueError:
        return None
    if (
        not isinstance(old_components, dict)
        or "structure" not in old_components
    ):
        return None
    if str(arrays.get("content_hash")) != old_content_hash:
        return None
    new_components = ingested.components
    if new_components["structure"] != old_components.get("structure"):
        return None
    changed = tuple(
        key
        for key, digest in sorted(new_components.items())
        if old_components.get(key) != digest
    )
    problem = ingested.problem
    names = list(problem.table.alternative_names)
    changed_rows = tuple(
        names.index(key[len("row:"):])
        for key in changed
        if key.startswith("row:")
    )
    try:
        with _stage(
            "delta.patch", path=str(path), rows=len(changed_rows)
        ):
            compiled = delta_compile(
                _compiled_from_arrays(arrays), problem, changed_rows
            )
    except (ValueError, KeyError):  # pragma: no cover - structure gate
        return None
    _persist_artifact(compiled, compiled_array_path(path), ingested)
    return DeltaLoad(compiled=compiled, changed_rows=changed_rows)

"""In-process response cache for the registry query service.

The sqlite registry index already memoises *numbers* across runs; this
module memoises *rendered responses* across requests.  A
:class:`ResponseCache` is a thread-safe LRU keyed by what the client
asked for — for workspace endpoints ``(verb, workspace id, config
hash)`` — holding the last body rendered for that request with its
ETag.  The ETag names the content the body was rendered from
(:func:`make_etag` over the verb, the workspace ``content_hash`` and
the ``config_hash``), so a read serves the entry only when the ETag it
computes matches: a ``touch`` keeps the entry hot, a semantic edit
renders a fresh body that replaces it, and an index outage can still
replay the key's last body.

:func:`if_none_match_matches` implements the ``If-None-Match`` →
``304 Not Modified`` comparison, so a client that caches one response
revalidates with one stat + one sqlite point read and no body bytes.
"""

from __future__ import annotations

import gzip as _gzip
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional

__all__ = [
    "CachedResponse",
    "ResponseCache",
    "make_etag",
    "if_none_match_matches",
    "accepts_gzip",
    "gzip_bytes",
]


@dataclass(frozen=True)
class CachedResponse:
    """One rendered response body plus its validator."""

    body: bytes
    etag: str


def make_etag(*parts: str) -> str:
    """A strong ETag derived from the response's semantic identity.

    ``parts`` name the rendered content (endpoint name, content hash,
    config hash, ...); the ETag is a quoted sha256 prefix over their
    canonical join, so equal identities always revalidate and any
    changed part produces a different validator.
    """
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()
    return f'"{digest[:32]}"'


def if_none_match_matches(header: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates ``etag``.

    Implements the comparison a GET endpoint needs: ``*`` matches any
    representation, otherwise the comma-separated candidate list is
    compared entity-tag by entity-tag (weak ``W/`` prefixes ignored,
    per RFC 9110's weak comparison for ``If-None-Match``).
    """
    if not header:
        return False
    if header.strip() == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def accepts_gzip(accept_encoding: Optional[str]) -> bool:
    """Whether an ``Accept-Encoding`` header opts into gzip.

    Parses the comma-separated coding list: ``gzip`` (any positive
    ``q``) accepts; ``gzip;q=0`` refuses; ``*`` as a wildcard accepts
    unless gzip is explicitly zeroed.  Absent header means identity
    only — compression is strictly opt-in.
    """
    if not accept_encoding:
        return False
    wildcard = False
    for part in accept_encoding.split(","):
        tokens = part.strip().split(";")
        coding = tokens[0].strip().lower()
        q = 1.0
        for token in tokens[1:]:
            token = token.strip()
            if token.startswith("q="):
                try:
                    q = float(token[2:])
                except ValueError:
                    q = 0.0
        if coding == "gzip":
            return q > 0.0
        if coding == "*":
            wildcard = q > 0.0
    return wildcard


def gzip_bytes(body: bytes, level: int = 5) -> bytes:
    """Deterministically gzip one response body.

    ``mtime=0`` pins the gzip header so equal bodies always compress
    to equal bytes — compressed responses stay byte-reproducible, the
    same property the uncompressed read-through contract pins.  The
    (strong, semantic) ETag is *unchanged* by compression: the
    validator names the representation's content identity, and the
    ``If-None-Match`` check happens before any body is built, so 304
    revalidation works identically for gzip and identity clients.
    """
    return _gzip.compress(body, compresslevel=level, mtime=0)


class ResponseCache:
    """A bounded, thread-safe LRU of hot :class:`CachedResponse` entries.

    ``capacity`` bounds the entry count; insertion past it evicts the
    least-recently-used entry; ``put`` on a present key replaces its
    entry.  ``get``/``put`` are O(1) under one lock.  The cache keeps
    no counters: the service counts lookups in the process-wide
    ``repro_response_cache_{hits,misses}_total`` series.
    """

    def __init__(self, capacity: int = 1024) -> None:
        """Create an empty cache holding at most ``capacity`` entries."""
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, CachedResponse]" = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self, key: Hashable, etag: Optional[str] = None
    ) -> Optional[CachedResponse]:
        """The cached response under ``key``, refreshed to MRU; or None.

        With ``etag``, an entry rendered under another ETag (another
        version of the content) is a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (etag is not None and entry.etag != etag):
                return None
            self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: CachedResponse) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Current entry count."""
        with self._lock:
            return len(self._entries)

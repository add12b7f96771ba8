"""Request handling for the federated registry query service.

A :class:`ServiceApp` is the whole HTTP surface minus the socket: it
maps ``(method, path, query, headers, body)`` to a :class:`Response`,
so unit tests exercise every endpoint, error path and cache state
without binding a port.  :mod:`repro.service.server` adapts it onto a
threaded stdlib HTTP server.

Dispatch is declarative: :data:`ROUTES` is the route table
(:class:`~repro.service.routes.Route` entries — method, path
template, handler, query-parameter specs, auth class) compiled by a
:class:`~repro.service.routes.Router`; the same table generates the
OpenAPI 3.1 document served at ``GET /v1/openapi.json``.

Resource model (v1)
-------------------
``registries → workspaces → versions → results``.  A
:class:`~repro.service.federation.Federation` mounts many named
registries, each with its own index, response LRU, stale cache and
circuit breaker, so one registry's edit bursts or failure storms
never degrade another:

``GET /healthz`` / ``GET /metrics`` / ``GET /v1/openapi.json``
    Service-scoped: liveness (per-registry blocks), counters/latency
    (``?format=prometheus`` for exposition text) and the generated
    API description.
``GET /v1/registries`` · ``POST /v1/registries``
    The mount table: list mounted registries; mount another at
    runtime (``{"name": ..., "root": ..., "index": ...}``).
``GET /v1/registries/{registry}`` · ``DELETE /v1/registries/{registry}``
    One registry's descriptor + index status; unmount it (the
    default registry refuses with 409).
``GET /v1/registries/{registry}/registry``
    The workspace listing with identity fingerprints.
``GET /v1/registries/{registry}/workspaces/{id}/ranking``
    The cached batch ranking row set (read-through; ``?at=<hash>``
    pins the read to a recorded content-hash version).
``GET /v1/registries/{registry}/workspaces/{id}/montecarlo``
    Ranking plus §V Monte Carlo stats (``simulations``/``method``/
    ``seed`` select the configuration; ``at`` pins the version).
``GET /v1/registries/{registry}/workspaces/{id}/dominance``
    The §V strict-dominance matrix (LRU-cached by content hash).
``GET /v1/registries/{registry}/workspaces/{id}/rankintervals``
    Attainable-rank intervals (LRU-cached by content hash).
``GET /v1/registries/{registry}/workspaces/{id}/group``
    The group-decision result under the server's member roster.
``GET /v1/registries/{registry}/workspaces/{id}/versions``
    Content-hash lineage: every version the index has seen, its tag,
    and how many result sets are recorded for it.
``POST /v1/registries/{registry}/workspaces/{id}/versions``
    Tag one recorded version (``{"content_hash": ..., "tag": ...}``).
``POST /v1/registries/{registry}/evaluate``
    Ad-hoc evaluation of a posted workspace document; nothing is
    persisted.

Legacy aliases (deprecated)
---------------------------
The PR-4-era single-registry routes — ``/v1/registry``,
``/v1/workspaces/{id}/<verb>`` and ``POST /v1/evaluate`` — keep
working as aliases of the *default* registry and answer
byte-identically to their ``/v1/registries/{default}/...``
equivalents, plus ``Deprecation``/``Sunset`` headers.

Read-through contract: ranking/montecarlo answers come from the
registry index when the workspace's content hash has cached rows for
the requested configuration — the *exact* floats ``repro batch``
stored.  On a miss the workspace is compiled and evaluated via
:class:`~repro.core.runtime.ShardedRunner` (under the registry's
single writer lock) and the fresh rows are committed back through
:meth:`~repro.core.index.RegistryIndex.record_run`, so the server and
the batch CLI share one cache and serve byte-identical numbers in
either direction.

Hardening: a static bearer token (``repro serve --auth-token``) gates
every non-public route; bodies ≥ :data:`_GZIP_MIN_BYTES` gzip when
the client sends ``Accept-Encoding: gzip`` (ETag-safe — the validator
names content identity and ``If-None-Match`` is checked before any
body is built); ``--warm-writes`` starts a :class:`_CacheWarmer` that
pre-evaluates edited workspaces in the background.

Errors are uniform: every 4xx/5xx body is the JSON envelope
``{"error": {"code", "message", "detail"}}``
(:class:`~repro.service.routes.ServiceError`).  Workspace ids are
registry-relative paths without the ``.json`` suffix.
"""

from __future__ import annotations

import hmac
import json
import math
import os
import re
import sqlite3
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from queue import Queue
from typing import Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..core import workspace as _workspace
from ..core.engine import BatchEvaluator, compile_problem
from ..core.group import load_members, members_digest
from ..core.index import RegistryIndex, eval_config_hash
from ..core.runtime import BatchOptions, ShardedRunner
from ..obs import metrics as _obs_metrics
from ..obs import span as _span
from ..obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..reporting.figures import MC_SEED
from .cache import (
    CachedResponse,
    accepts_gzip,
    gzip_bytes,
    if_none_match_matches,
    make_etag,
)
from .federation import DEFAULT_REGISTRY_NAME, Federation, RegistryState
from .routes import (
    QueryParam,
    Route,
    Router,
    ServiceError,
    build_openapi,
    coerce_query,
)

__all__ = ["Response", "ServiceError", "ServiceApp", "Request", "ROUTES"]

_JSON = "application/json"
_MC_METHODS = ("random", "rank_order", "intervals")
_WORKSPACE_VERBS = (
    "ranking",
    "montecarlo",
    "dominance",
    "rankintervals",
    "group",
)
_LOAD_ERRORS = (OSError, ValueError, KeyError, TypeError)

#: Response bodies below this size are never gzipped (the header
#: overhead would not pay for itself).
_GZIP_MIN_BYTES = 512

#: Content hashes accepted by ``?at=`` / version tagging.
_HEX_HASH = re.compile(r"^[0-9a-f]{8,64}$")

#: Headers every deprecated legacy alias answers with.
_DEPRECATION_HEADERS = {
    "Deprecation": "true",
    "Sunset": "Wed, 01 Jul 2027 00:00:00 GMT",
    "Link": '</v1/openapi.json>; rel="successor-version"',
}


@dataclass(frozen=True)
class Response:
    """One rendered HTTP response (status, body bytes, extra headers)."""

    status: int
    body: bytes = b""
    content_type: str = _JSON
    headers: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Request:
    """One parsed, authorized request as handlers receive it.

    ``path_params`` are the template captures (``registry``, ``id``),
    ``params`` the coerced query values per the route's
    :class:`~repro.service.routes.QueryParam` specs, ``query`` the raw
    ``parse_qs`` mapping, ``headers`` lower-cased.
    """

    method: str
    path: str
    route: Route
    path_params: Mapping[str, str]
    params: Mapping[str, object]
    query: Mapping[str, List[str]]
    headers: Mapping[str, str]
    body: bytes = b""


def _dumps(payload: object) -> bytes:
    """Canonical JSON rendering: sorted keys, no whitespace.

    ``json.dumps`` renders floats via ``repr`` (shortest round-trip),
    so two payloads built from bit-identical binary64 values always
    render byte-identical bodies — the property the read-through
    contract and its tests rely on.
    """
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


#: The endpoint label of every request the route table cannot match
#: (404 unknown path, 405 wrong method): raw paths would mint one
#: series per distinct URL.
_UNMATCHED = "(unmatched)"


def _http_requests() -> _obs_metrics.Counter:
    """``repro_http_requests_total``: the one count of served requests."""
    return _obs_metrics.registry().counter(
        "repro_http_requests_total",
        "HTTP requests served, by endpoint label, registry and status.",
        labelnames=("endpoint", "registry", "status"),
    )


def _http_seconds() -> _obs_metrics.Histogram:
    """``repro_http_request_seconds``: end-to-end handling latency."""
    return _obs_metrics.registry().histogram(
        "repro_http_request_seconds",
        "End-to-end request handling latency in seconds.",
        buckets=_obs_metrics.STAGE_BUCKETS,
    )


def _cache_lookups(hit: bool) -> _obs_metrics.Counter:
    """The per-registry response-LRU hit (or miss) counter."""
    return _obs_metrics.registry().counter(
        "repro_response_cache_hits_total"
        if hit
        else "repro_response_cache_misses_total",
        "Response LRU lookups, split by outcome "
        "(hits serve the stored body; misses rebuild it).",
        labelnames=("registry",),
    )


class _CircuitBreaker:
    """Evaluation circuit breaker: ``closed`` → ``open`` → ``half-open``.

    Protects the evaluation machinery from failure storms.  While
    closed every evaluation proceeds; after ``threshold`` *consecutive*
    failures the circuit opens and evaluations are refused outright
    (503 + ``Retry-After``) for ``cooldown`` seconds.  The first
    request after the cooldown transitions to half-open and is let
    through as a single probe — success closes the circuit, failure
    re-opens it for another full cooldown.  The clock is injectable so
    tests drive the state machine without sleeping.  Each mounted
    registry owns its own breaker, so one registry's failure storm
    never refuses another registry's evaluations.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        """A closed breaker tripping after ``threshold`` straight failures."""
        self._lock = threading.Lock()
        self._threshold = threshold
        self._cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """The current state: ``closed``, ``open`` or ``half-open``."""
        with self._lock:
            return self._state

    def acquire(self) -> Optional[int]:
        """Ask to run one evaluation.

        Returns ``None`` when the call may proceed (closed, or the
        single half-open probe).  Otherwise returns the whole number of
        seconds the caller should advertise as ``Retry-After``.
        """
        with self._lock:
            if self._state == "closed":
                return None
            elapsed = self._clock() - self._opened_at
            if self._state == "open" and elapsed >= self._cooldown:
                self._state = "half-open"
            if self._state == "half-open" and not self._probing:
                self._probing = True
                return None
            return max(1, math.ceil(self._cooldown - elapsed))

    def record_success(self) -> None:
        """An evaluation completed: reset the count, close the circuit."""
        with self._lock:
            self._failures = 0
            self._state = "closed"
            self._probing = False

    def record_failure(self) -> None:
        """An evaluation failed: count it, opening at the threshold."""
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self._threshold:
                self._state = "open"
                self._opened_at = self._clock()
            self._probing = False

    def abort_probe(self) -> None:
        """A probe ended without a verdict (index outage mid-flight)."""
        with self._lock:
            self._probing = False

    def snapshot(self) -> Dict[str, object]:
        """The ``/healthz`` view of the breaker's state."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self._threshold,
                "cooldown_seconds": self._cooldown,
            }


class _CacheWarmer:
    """Post-write cache warming: pre-evaluate edited workspaces.

    When a probe detects a workspace edit, the app notifies this
    warmer (``repro serve --warm-writes``); a single daemon thread
    replays the default ranking read for the edited workspace so the
    read-through miss — compile, evaluate, ``record_run`` — is paid
    *before* the next client request instead of by it.  Failures are
    swallowed (the foreground path re-raises them properly) and
    counted under ``repro_cache_warm_total{outcome}``.
    """

    def __init__(self, app: "ServiceApp") -> None:
        """Start the warming thread against ``app``."""
        self._app = app
        self._queue: "Queue" = Queue()
        self._cond = threading.Condition()
        self._pending = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-cache-warmer", daemon=True
        )
        self._thread.start()

    def notify(self, registry_name: str, ws_id: str) -> None:
        """Enqueue one edited workspace for background evaluation."""
        with self._cond:
            self._pending += 1
        self._queue.put((registry_name, ws_id))

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every queued warm finished; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))
            return True

    def close(self) -> None:
        """Stop the warming thread (waits for in-flight work)."""
        self._queue.put(None)
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            name, ws_id = item
            outcome = "ok"
            try:
                self._app._warm(name, ws_id)
            except Exception:
                outcome = "error"
            finally:
                _obs_metrics.registry().counter(
                    "repro_cache_warm_total",
                    "Background cache-warming runs, by outcome.",
                    labelnames=("outcome",),
                ).inc(outcome=outcome)
                with self._cond:
                    self._pending -= 1
                    self._cond.notify_all()


def _build_routes() -> List[Route]:
    """The service's route table (new v1 surface + legacy aliases)."""
    at_param = QueryParam(
        "at",
        description=(
            "Pin the read to a recorded content hash; answers 404 "
            "version_not_found when the index has no rows for it."
        ),
    )
    mc_params = (
        QueryParam(
            "simulations",
            kind="int",
            default=10_000,
            minimum=1,
            description="Monte Carlo sample count.",
        ),
        QueryParam(
            "method",
            choices=_MC_METHODS,
            default="intervals",
            description="Weight sampling scheme.",
        ),
        QueryParam(
            "seed",
            kind="int",
            default=MC_SEED,
            description="Deterministic sampling seed.",
        ),
        at_param,
    )
    verb_specs = [
        (
            "ranking",
            "_h_ranking",
            "Cached batch ranking row set (read-through).",
            (at_param,),
        ),
        (
            "montecarlo",
            "_h_montecarlo",
            "Ranking plus Monte Carlo stability statistics.",
            mc_params,
        ),
        (
            "dominance",
            "_h_dominance",
            "Strict-dominance screening matrix.",
            (),
        ),
        (
            "rankintervals",
            "_h_rankintervals",
            "Attainable-rank intervals.",
            (),
        ),
        (
            "group",
            "_h_group",
            "Group-decision result under the configured roster.",
            (),
        ),
    ]
    routes = [
        Route(
            "GET", "/healthz", "_h_healthz", "healthz",
            "Liveness and degradation report (always 200).",
            auth="public",
        ),
        Route(
            "GET", "/metrics", "_h_metrics", "metrics",
            "Request counters, cache stats and latency percentiles.",
            auth="public",
            params=(
                QueryParam(
                    "format",
                    default="json",
                    description="'json' (default) or 'prometheus'.",
                ),
            ),
        ),
        Route(
            "GET", "/v1/openapi.json", "_h_openapi", "openapi",
            "The OpenAPI 3.1 description generated from the route table.",
            auth="public",
        ),
        Route(
            "GET", "/v1/registries", "_h_registries", "list_registries",
            "List every mounted registry.",
        ),
        Route(
            "POST", "/v1/registries", "_h_mount", "mount_registry",
            "Mount another registry directory at runtime.",
            auth="admin",
        ),
        Route(
            "GET", "/v1/registries/{registry}", "_h_registry_info",
            "get_registry",
            "One registry's descriptor, index status and cache stats.",
            scope="registry",
        ),
        Route(
            "DELETE", "/v1/registries/{registry}", "_h_unmount",
            "unmount_registry",
            "Unmount one registry (the default registry refuses).",
            auth="admin", scope="registry",
        ),
        Route(
            "GET", "/v1/registries/{registry}/registry", "_h_registry",
            "registry",
            "Workspace listing with identity fingerprints.",
            scope="registry",
        ),
        Route(
            "GET",
            "/v1/registries/{registry}/workspaces/{id...}/versions",
            "_h_versions", "versions",
            "Content-hash lineage of one workspace, with tags.",
            scope="registry",
        ),
        Route(
            "POST",
            "/v1/registries/{registry}/workspaces/{id...}/versions",
            "_h_tag_version", "tag_version",
            "Tag one recorded content-hash version.",
            auth="admin", scope="registry",
        ),
        Route(
            "POST", "/v1/registries/{registry}/evaluate", "_h_evaluate",
            "evaluate",
            "Evaluate an ad-hoc workspace document (nothing persists).",
            scope="registry",
        ),
    ]
    for verb, handler, summary, params in verb_specs:
        routes.append(
            Route(
                "GET",
                f"/v1/registries/{{registry}}/workspaces/{{id...}}/{verb}",
                handler, f"get_{verb}", summary,
                scope="registry", params=params,
            )
        )
    # Legacy single-registry aliases: same handlers, default registry,
    # Deprecation/Sunset headers — bodies stay byte-identical.
    routes.append(
        Route(
            "GET", "/v1/registry", "_h_registry", "registry_legacy",
            "Deprecated alias of /v1/registries/{default}/registry.",
            scope="default", deprecated=True,
        )
    )
    for verb, handler, summary, params in verb_specs:
        routes.append(
            Route(
                "GET", f"/v1/workspaces/{{id...}}/{verb}",
                handler, f"get_{verb}_legacy",
                f"Deprecated alias: {summary}",
                scope="default", deprecated=True, params=params,
            )
        )
    routes.append(
        Route(
            "POST", "/v1/evaluate", "_h_evaluate", "evaluate_legacy",
            "Deprecated alias of /v1/registries/{default}/evaluate.",
            scope="default", deprecated=True,
        )
    )
    return routes


#: The declarative route table — dispatch, coercion, metrics labels
#: and the OpenAPI document are all generated from this one list.
ROUTES: Tuple[Route, ...] = tuple(_build_routes())


class ServiceApp:
    """The federated registry query service's request handler (no socket).

    Mounts one or more registry directories into a
    :class:`~repro.service.federation.Federation` — each with its own
    :class:`~repro.core.index.RegistryIndex` (shared across request
    threads; per-thread sqlite connections), response LRU, stale cache
    and circuit breaker.  All evaluation writes for one registry
    funnel through its write lock so each index keeps its
    single-writer discipline.

    Parameters
    ----------
    registry_dir : str or Path
        Directory of workspace ``*.json`` files to serve as the
        *default* registry (the one legacy routes alias).
    index_path : str or Path, optional
        Default registry's index database
        (default ``<registry>/.repro-index.sqlite``).
    cache_size : int, optional
        Per-registry response-LRU capacity (entries, not bytes).
    members_path : str or Path, optional
        A ``repro-members/1`` roster document; configures the
        ``.../workspaces/{id}/group`` endpoint (404 without it).
        Validated at boot, so a malformed roster fails startup, not a
        request.
    mounts : mapping, optional
        Extra registries to mount at boot: name → directory.
    auth_token : str, optional
        Static bearer token; when set, every non-public route
        requires ``Authorization: Bearer <token>``.
    warm_writes : bool, optional
        Start the post-write cache warmer (background pre-evaluation
        of edited workspaces).
    default_name : str, optional
        The default registry's mount name.
    """

    _router = Router(ROUTES)

    def __init__(
        self,
        registry_dir: Union[str, Path],
        index_path: Optional[Union[str, Path]] = None,
        cache_size: int = 1024,
        members_path: Optional[Union[str, Path]] = None,
        mounts: Optional[Mapping[str, Union[str, Path]]] = None,
        auth_token: Optional[str] = None,
        warm_writes: bool = False,
        default_name: str = DEFAULT_REGISTRY_NAME,
    ) -> None:
        """Mount the registries and build empty per-registry caches."""
        self.members_path = (
            Path(members_path) if members_path is not None else None
        )
        self.members_spec = (
            load_members(self.members_path)
            if self.members_path is not None
            else None
        )
        self.members_digest = (
            members_digest(self.members_spec)
            if self.members_spec is not None
            else None
        )
        self.auth_token = auth_token
        self.federation = Federation(_CircuitBreaker, cache_size)
        default_state = self.federation.mount(
            default_name, registry_dir, index_path=index_path, default=True
        )
        for name in sorted(mounts or {}):
            self.federation.mount(name, (mounts or {})[name])
        # Single-registry compatibility surface (tests, server banner).
        self.registry_dir = default_state.root
        self.index_path = default_state.index_path
        self._warmer: Optional[_CacheWarmer] = (
            _CacheWarmer(self) if warm_writes else None
        )

    # -- single-registry compatibility properties -----------------------

    @property
    def index(self) -> RegistryIndex:
        """The default registry's index (legacy single-registry view)."""
        return self.federation.default.index

    @index.setter
    def index(self, value: RegistryIndex) -> None:
        """Swap the default registry's index (tests inject failures)."""
        self.federation.default.index = value

    @property
    def cache(self):
        """The default registry's response LRU."""
        return self.federation.default.cache

    @cache.setter
    def cache(self, value) -> None:
        """Swap the default registry's response LRU."""
        self.federation.default.cache = value

    @property
    def breaker(self) -> _CircuitBreaker:
        """The default registry's evaluation circuit breaker."""
        return self.federation.default.breaker

    @breaker.setter
    def breaker(self, value: _CircuitBreaker) -> None:
        """Swap the default registry's breaker (tests inject clocks)."""
        self.federation.default.breaker = value

    @property
    def _stale(self):
        """The default registry's stale (last known-good) cache."""
        return self.federation.default.stale

    @property
    def _write_lock(self) -> threading.Lock:
        """The default registry's single-writer lock."""
        return self.federation.default.write_lock

    def close(self) -> None:
        """Stop the warmer and release every index's connections."""
        if self._warmer is not None:
            self._warmer.close()
        self.federation.close()

    def __enter__(self) -> "ServiceApp":
        """Enter a ``with`` block; returns the app."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the app on ``with`` block exit."""
        self.close()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
    ) -> Response:
        """Route one request; never raises (errors become JSON envelopes).

        The pipeline: route-table match (404/405) → bearer auth
        (401/403) → query coercion (400) → handler → deprecation
        headers for legacy aliases → gzip negotiation.  Request
        correlation: an incoming ``X-Request-Id`` header is propagated
        into the request's span and echoed on the response; absent
        one, a fresh id is generated so every response (and its
        access-log line) is correlatable anyway.
        """
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        request_id = headers.get("x-request-id") or os.urandom(8).hex()
        split = urlsplit(target)
        path = unquote(split.path)
        query = parse_qs(split.query, keep_blank_values=True)
        endpoint, registry_label = _UNMATCHED, ""
        started = time.perf_counter()
        with _span(
            "http.request",
            method=method,
            path=path,
            request_id=request_id,
        ):
            try:
                route, path_params = self._router.match(method, path)
                endpoint = route.label
                if route.scope == "registry":
                    # only a mounted name labels: unknown ones are 404s
                    name = path_params.get("registry", "")
                    if self.federation.get(name) is not None:
                        registry_label = name
                elif route.scope == "default":
                    registry_label = self.federation.default_name or ""
                self._authorize(route, headers)
                params = coerce_query(route, query)
                request = Request(
                    method=method,
                    path=path,
                    route=route,
                    path_params=path_params,
                    params=params,
                    query=query,
                    headers=headers,
                    body=body,
                )
                response = getattr(self, route.handler)(request)
                if route.deprecated:
                    merged = dict(_DEPRECATION_HEADERS)
                    merged.update(response.headers)
                    response = replace(response, headers=merged)
            except ServiceError as exc:
                response = Response(
                    exc.status, _dumps(exc.envelope()), headers=exc.headers
                )
            except Exception as exc:  # pragma: no cover - defensive backstop
                response = Response(
                    500,
                    _dumps(
                        ServiceError(
                            500, f"{type(exc).__name__}: {exc}"
                        ).envelope()
                    ),
                )
            response = self._negotiate_encoding(response, headers)
        elapsed = time.perf_counter() - started
        _http_requests().inc(
            endpoint=endpoint,
            registry=registry_label,
            status=str(response.status),
        )
        _http_seconds().observe(elapsed)
        merged = dict(response.headers)
        merged.setdefault("X-Request-Id", request_id)
        return replace(response, headers=merged)

    def _authorize(self, route: Route, headers: Mapping[str, str]) -> None:
        """Bearer-token gate: 401 without credentials, 403 on mismatch.

        A no-op when the service runs without ``--auth-token`` or the
        route is public (``/healthz``, ``/metrics``, the spec).
        """
        if self.auth_token is None or route.auth == "public":
            return
        value = headers.get("authorization", "")
        if not value.startswith("Bearer "):
            raise ServiceError(
                401,
                "missing bearer token",
                headers={"WWW-Authenticate": "Bearer"},
                code="unauthorized",
            )
        token = value[len("Bearer "):].strip()
        if not hmac.compare_digest(token, self.auth_token):
            raise ServiceError(403, "invalid bearer token", code="forbidden")

    @staticmethod
    def _negotiate_encoding(
        response: Response, headers: Mapping[str, str]
    ) -> Response:
        """Gzip the body when the client accepts it and it pays off.

        ETag-safe: the validator names the response's *content*
        identity and the ``If-None-Match`` check runs before any body
        is built, so 304 revalidation is identical for gzip and
        identity clients.  Compression is deterministic
        (:func:`~repro.service.cache.gzip_bytes` pins ``mtime=0``).
        """
        if response.status == 304 or not response.body:
            return response
        if len(response.body) < _GZIP_MIN_BYTES:
            return response
        if "Content-Encoding" in response.headers:
            return response
        if not accepts_gzip(headers.get("accept-encoding")):
            return response
        compressed = gzip_bytes(response.body)
        if len(compressed) >= len(response.body):
            return response
        merged = dict(response.headers)
        merged["Content-Encoding"] = "gzip"
        merged["Vary"] = "Accept-Encoding"
        return replace(response, body=compressed, headers=merged)

    def _state_for(self, request: Request) -> RegistryState:
        """The registry state a request addresses (404 when unmounted)."""
        if request.route.scope == "registry":
            name = request.path_params["registry"]
            state = self.federation.get(name)
            if state is None:
                raise ServiceError(
                    404,
                    f"unknown registry {name!r}",
                    code="registry_not_found",
                )
            return state
        return self.federation.default

    # ------------------------------------------------------------------
    # Service-scoped endpoints
    # ------------------------------------------------------------------

    def _h_healthz(self, request: Request) -> Response:
        """Liveness plus degradation report — always HTTP 200.

        ``status`` is ``"ok"`` when every registry's index answers a
        ping and every circuit breaker is closed, ``"degraded"``
        otherwise; ``registries`` carries the per-registry blocks.
        Monitors read the payload, not the status code: a degraded
        service is still *serving* (stale reads keep working), so
        load balancers must not eject it.
        """
        registries: Dict[str, Dict[str, object]] = {}
        for state in self.federation.states():
            index_error: Optional[str] = None
            try:
                state.index.ping()
            except sqlite3.Error as exc:
                index_error = f"{type(exc).__name__}: {exc}"
            breaker = state.breaker.snapshot()
            degraded = index_error is not None or breaker["state"] != "closed"
            registries[state.name] = {
                "status": "degraded" if degraded else "ok",
                "registry": str(state.root),
                "index_db": str(state.index_path),
                "index_available": index_error is None,
                "index_error": index_error,
                "circuit_breaker": breaker,
            }
        default_name = self.federation.default.name
        payload = dict(registries[default_name])
        payload["status"] = (
            "degraded"
            if any(r["status"] == "degraded" for r in registries.values())
            else "ok"
        )
        payload["members"] = (
            str(self.members_path) if self.members_path is not None else None
        )
        payload["default_registry"] = default_name
        payload["registries"] = registries
        return Response(200, _dumps(payload))

    def _h_metrics(self, request: Request) -> Response:
        """The metrics scrape: JSON by default, ``?format=prometheus``.

        Both formats read the process-wide :mod:`repro.obs.metrics`
        registry, the only place requests and cache lookups are
        counted, so they cannot disagree.  The Prometheus branch
        renders it whole — request counts, response cache hits/misses,
        per-stage eval seconds — plus one breaker state gauge per
        registry, in text exposition format 0.0.4; the JSON branch is
        the :meth:`_metrics_snapshot` view of it.
        """
        fmt = request.params["format"]
        if fmt == "prometheus":
            return Response(
                200,
                self._prometheus_text().encode("utf-8"),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        if fmt != "json":
            raise ServiceError(
                400,
                f"unknown metrics format {fmt!r} "
                "(expected 'json' or 'prometheus')",
            )
        return Response(200, _dumps(self._metrics_snapshot()))

    def _metrics_snapshot(self) -> Dict[str, object]:
        """The JSON ``/metrics`` payload, summed from the obs series.

        ``requests`` splits ``repro_http_requests_total`` by each
        label; ``latency`` quantiles are the bucket upper bounds of
        ``repro_http_request_seconds``; ``cache`` is the default
        registry's block.
        """
        splits: Dict[str, Dict[str, int]] = {
            "endpoint": {},
            "registry": {},
            "status": {},
        }
        for _, pairs, value in _http_requests().samples():
            for label, key in pairs:
                split = splits[label]
                split[key] = split.get(key, 0) + int(value)
        by_status = splits["status"]
        seconds = _http_seconds()
        count = seconds.count()

        def ms(value: Optional[float]) -> Optional[float]:
            return None if value is None else value * 1000.0

        return {
            "requests": {
                "total": sum(by_status.values()),
                "by_endpoint": splits["endpoint"],
                "by_registry": splits["registry"],
                "by_status": by_status,
                "not_modified": by_status.get("304", 0),
            },
            "latency": {
                "count": count,
                "p50_ms": ms(seconds.quantile(0.50)),
                "p99_ms": ms(seconds.quantile(0.99)),
                "mean_ms": ms(seconds.sum() / count) if count else None,
            },
            "cache": self._cache_stats(self.federation.default),
            "registries": {
                state.name: {"cache": self._cache_stats(state)}
                for state in self.federation.states()
            },
        }

    @staticmethod
    def _cache_stats(state: RegistryState) -> Dict[str, object]:
        """One registry's response-LRU lookups and occupancy."""
        hits = int(_cache_lookups(True).value(registry=state.name))
        misses = int(_cache_lookups(False).value(registry=state.name))
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": len(state.cache),
            "capacity": state.cache.capacity,
            "hit_ratio": (hits / total) if total else 0.0,
        }

    #: Breaker states as gauge values (closed is healthy).
    _BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    def _prometheus_text(self) -> str:
        """The exposition body: obs registry + scrape-time gauges."""
        reg = _obs_metrics.registry()
        gauge = reg.gauge(
            "repro_breaker_state",
            "Per-registry evaluation circuit breaker: "
            "0 closed, 1 half-open, 2 open.",
            labelnames=("registry",),
        )
        for state in self.federation.states():
            gauge.set(
                self._BREAKER_STATES.get(state.breaker.state, -1),
                registry=state.name,
            )
        return render_prometheus(reg)

    def _h_openapi(self, request: Request) -> Response:
        """The generated OpenAPI 3.1 document for the route table."""
        return Response(200, _dumps(build_openapi(self._router.routes)))

    # ------------------------------------------------------------------
    # Registry CRUD
    # ------------------------------------------------------------------

    def _h_registries(self, request: Request) -> Response:
        """List every mounted registry (name, root, index, default)."""
        default_name = self.federation.default_name
        entries = [
            {
                "name": state.name,
                "root": str(state.root),
                "index_db": str(state.index_path),
                "default": state.name == default_name,
            }
            for state in self.federation.states()
        ]
        return Response(
            200,
            _dumps(
                {
                    "default": default_name,
                    "n_registries": len(entries),
                    "registries": entries,
                }
            ),
        )

    def _h_mount(self, request: Request) -> Response:
        """Mount another registry at runtime (POST /v1/registries)."""
        doc = self._json_body(request.body)
        unknown = sorted(set(doc) - {"name", "root", "index"})
        if unknown:
            raise ServiceError(400, f"unknown field(s): {', '.join(unknown)}")
        name, root = doc.get("name"), doc.get("root")
        if not isinstance(name, str) or not isinstance(root, str):
            raise ServiceError(400, "'name' and 'root' must be strings")
        index = doc.get("index")
        if index is not None and not isinstance(index, str):
            raise ServiceError(400, "'index' must be a string path")
        try:
            state = self.federation.mount(name, root, index_path=index)
        except ValueError as exc:
            if "already mounted" in str(exc):
                raise ServiceError(409, str(exc), code="conflict") from exc
            raise ServiceError(400, str(exc)) from exc
        return Response(
            201,
            _dumps(
                {
                    "name": state.name,
                    "root": str(state.root),
                    "index_db": str(state.index_path),
                    "default": state.name == self.federation.default_name,
                }
            ),
        )

    def _h_registry_info(self, request: Request) -> Response:
        """One registry's descriptor, index status and cache stats."""
        state = self._state_for(request)
        index_status: Optional[Dict[str, object]] = None
        index_error: Optional[str] = None
        try:
            index_status = state.index.status()
        except sqlite3.Error as exc:
            index_error = f"{type(exc).__name__}: {exc}"
        return Response(
            200,
            _dumps(
                {
                    "name": state.name,
                    "root": str(state.root),
                    "index_db": str(state.index_path),
                    "default": state.name == self.federation.default_name,
                    "index": index_status,
                    "index_error": index_error,
                    "cache": self._cache_stats(state),
                }
            ),
        )

    def _h_unmount(self, request: Request) -> Response:
        """Unmount one registry (DELETE; the default refuses with 409)."""
        name = request.path_params["registry"]
        try:
            self.federation.unmount(name)
        except KeyError:
            raise ServiceError(
                404, f"unknown registry {name!r}", code="registry_not_found"
            ) from None
        except ValueError as exc:
            raise ServiceError(409, str(exc), code="conflict") from exc
        return Response(200, _dumps({"unmounted": name}))

    # ------------------------------------------------------------------
    # Registry listing
    # ------------------------------------------------------------------

    @staticmethod
    def _registry_paths(state: RegistryState) -> List[Path]:
        return sorted(
            p
            for p in state.root.rglob("*.json")
            if p.resolve() != state.index_path.resolve()
        )

    def _h_registry(self, request: Request) -> Response:
        """The workspace listing with identity fingerprints."""
        state = self._state_for(request)
        workspaces = []
        fresh_records = []
        for path in self._registry_paths(state):
            ws_id = path.relative_to(state.root).with_suffix("").as_posix()
            record, status = state.index.probe_with_status(path)
            if record is None:
                workspaces.append({"id": ws_id, "error": "unreadable"})
                continue
            if status != "fresh":
                self._absorb_edit(state, ws_id, path, record, status)
                fresh_records.append(record)
            workspaces.append(
                {
                    "id": ws_id,
                    "content_hash": record.content_hash,
                    "source_sha": record.source_sha,
                    "size": record.size,
                    "mtime_ns": record.mtime_ns,
                    "n_alternatives": record.n_alternatives,
                    "n_attributes": record.n_attributes,
                }
            )
        if fresh_records:
            # persist the fingerprints so the next listing (and every
            # ranking probe) takes the stat fast path instead of
            # re-hashing unchanged files
            with state.write_lock:
                state.index.record_probes(fresh_records)
        payload = {
            "name": state.name,
            "registry": str(state.root),
            "index": state.index.status(),
            "n_workspaces": len(workspaces),
            "workspaces": workspaces,
        }
        return Response(200, _dumps(payload))

    # ------------------------------------------------------------------
    # Workspace endpoints
    # ------------------------------------------------------------------

    def _h_ranking(self, request: Request) -> Response:
        """GET .../workspaces/{id}/ranking."""
        return self._workspace_get(request, "ranking")

    def _h_montecarlo(self, request: Request) -> Response:
        """GET .../workspaces/{id}/montecarlo."""
        return self._workspace_get(request, "montecarlo")

    def _h_dominance(self, request: Request) -> Response:
        """GET .../workspaces/{id}/dominance."""
        return self._workspace_get(request, "dominance")

    def _h_rankintervals(self, request: Request) -> Response:
        """GET .../workspaces/{id}/rankintervals."""
        return self._workspace_get(request, "rankintervals")

    def _h_group(self, request: Request) -> Response:
        """GET .../workspaces/{id}/group."""
        return self._workspace_get(request, "group")

    def _workspace_get(self, request: Request, verb: str) -> Response:
        """The shared workspace GET: resolve, serve, degrade on outage."""
        state = self._state_for(request)
        ws_id = request.path_params["id"]
        path = self._resolve(state, ws_id)
        try:
            at = request.params.get("at")
            if at is not None and verb in ("ranking", "montecarlo"):
                options = (
                    BatchOptions()
                    if verb == "ranking"
                    else self._mc_options(request.params)
                )
                return self._serve_pinned(
                    state, ws_id, verb, str(at), options, request.headers
                )
            if verb == "ranking":
                return self._serve_results(
                    state, ws_id, path, BatchOptions(), request.headers
                )
            if verb == "montecarlo":
                return self._serve_results(
                    state,
                    ws_id,
                    path,
                    self._mc_options(request.params),
                    request.headers,
                )
            if verb == "group":
                return self._serve_group(state, ws_id, path, request.headers)
            return self._serve_screening(
                state, verb, ws_id, path, request.headers
            )
        except sqlite3.Error as exc:
            state.breaker.abort_probe()
            return self._serve_stale(state, verb, ws_id, exc)

    @staticmethod
    def _resolve(state: RegistryState, ws_id: str) -> Path:
        """The registry file behind a workspace id (404 when absent)."""
        segments = ws_id.split("/")
        if not ws_id or any(s in ("", ".", "..") for s in segments):
            raise ServiceError(400, f"invalid workspace id {ws_id!r}")
        path = state.root / (ws_id + ".json")
        if not path.is_file():
            raise ServiceError(404, f"unknown workspace {ws_id!r}")
        return path

    def _probe(self, state: RegistryState, ws_id: str, path: Path):
        """Probe one workspace, absorbing any edit incrementally.

        A changed file goes through :meth:`_absorb_edit`, and the fresh
        fingerprint is persisted so every later probe takes the stat
        fast path.
        """
        record, status = state.index.probe_with_status(path)
        if record is None:
            raise ServiceError(
                409,
                f"workspace {ws_id!r} exists but cannot be parsed",
                code="workspace_invalid",
            )
        if status != "fresh":
            self._absorb_edit(state, ws_id, path, record, status)
            with state.write_lock:
                state.index.record_probes([record])
        return record

    def _absorb_edit(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        record,
        status: str,
    ) -> None:
        """Evict the responses a changed workspace's edit superseded.

        The responses rendered from its *previous* content hash leave
        the registry's LRU (targeted invalidation instead of waiting
        for them to age out) and the cache warmer, when enabled, is
        notified.  :meth:`_probe` and the listing share this step.
        """
        if status != "changed":
            return
        old = state.index.lookup_workspace(path)
        if old is not None and old.content_hash != record.content_hash:
            state.cache.invalidate(old.content_hash)
            self._notify_warm(state.name, ws_id)

    def _notify_warm(self, registry_name: str, ws_id: str) -> None:
        """Queue a background pre-evaluation when warming is enabled."""
        if self._warmer is not None:
            self._warmer.notify(registry_name, ws_id)

    def _warm(self, registry_name: str, ws_id: str) -> None:
        """One background warm: replay the default ranking read."""
        state = self.federation.get(registry_name)
        if state is None:
            return
        path = state.root / (ws_id + ".json")
        if not path.is_file():
            return
        self._serve_results(state, ws_id, path, BatchOptions(), {})

    @staticmethod
    def _mc_options(params: Mapping[str, object]) -> BatchOptions:
        """Monte Carlo options from the route's coerced parameters."""
        return BatchOptions(
            simulations=int(params["simulations"]),  # type: ignore[arg-type]
            method=str(params["method"]),
            seed=int(params["seed"]),  # type: ignore[arg-type]
        )

    def _serve_stale(
        self,
        state: RegistryState,
        verb: str,
        ws_id: str,
        exc: sqlite3.Error,
    ) -> Response:
        """Degraded read: the last known-good body for this endpoint.

        Reached when the registry index raises ``sqlite3.Error`` while
        serving a workspace GET.  If this endpoint answered before, the
        stored body is replayed with ``X-Cache: stale`` and the RFC
        7234 ``Warning: 110`` header so clients know it may be out of
        date; otherwise the outage surfaces as 503 + ``Retry-After``.
        """
        stale = state.stale.get((verb, ws_id))
        if stale is None:
            raise ServiceError(
                503,
                f"registry index unavailable "
                f"({type(exc).__name__}: {exc}) and no cached response "
                f"for {ws_id!r}",
                headers={"Retry-After": "5"},
                code="index_unavailable",
            ) from exc
        return Response(
            200,
            stale.body,
            headers={
                "ETag": stale.etag,
                "X-Cache": "stale",
                "Warning": '110 - "Response is Stale"',
            },
        )

    def _finish(
        self,
        state: RegistryState,
        key: Tuple,
        etag: str,
        headers: Mapping[str, str],
        build,
        stale_key: Optional[Tuple[str, str]] = None,
    ) -> Response:
        """The shared validator → LRU → build tail of every GET.

        ``build()`` runs only when both the client validator and the
        registry's response LRU miss; its body is cached under ``key``
        for the next request with the same semantic identity.  Every
        200 body is also stored under ``stale_key`` — the per-endpoint
        last known-good answer replayed by :meth:`_serve_stale` when
        the index goes down.
        """
        if if_none_match_matches(headers.get("if-none-match"), etag):
            return Response(304, b"", headers={"ETag": etag})
        cached = state.cache.get(key)
        if cached is None:
            cached = CachedResponse(body=build(), etag=etag)
            state.cache.put(key, cached)
            x_cache = "miss"
        else:
            x_cache = "hit"
        _cache_lookups(x_cache == "hit").inc(registry=state.name)
        if stale_key is not None:
            state.stale.put(stale_key, cached)
        return Response(
            200, cached.body, headers={"ETag": etag, "X-Cache": x_cache}
        )

    # -- ranking / montecarlo: the index read-through -------------------

    def _serve_results(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        options: BatchOptions,
        headers: Mapping[str, str],
    ) -> Response:
        record = self._probe(state, ws_id, path)
        config_hash = eval_config_hash(options)
        verb = "montecarlo" if options.simulations else "ranking"
        etag = make_etag(verb, record.content_hash, config_hash)
        key = (verb, record.content_hash, config_hash)

        def build() -> bytes:
            rows = state.index.lookup_results(record.content_hash, config_hash)
            if rows is None:
                rows = self._evaluate_through(
                    state, ws_id, path, options, config_hash
                )
            return _dumps(
                self._results_payload(ws_id, record.content_hash, options, rows)
            )

        return self._finish(
            state, key, etag, headers, build, stale_key=(verb, ws_id)
        )

    def _serve_pinned(
        self,
        state: RegistryState,
        ws_id: str,
        verb: str,
        at: str,
        options: BatchOptions,
        headers: Mapping[str, str],
    ) -> Response:
        """A version-pinned read: recorded results for ``?at=<hash>``.

        Pinned reads never evaluate — the index either has rows for
        ``(at, config_hash)`` (because a batch run or a live read
        recorded them before the workspace moved on) or the request is
        a 404 ``version_not_found``.  The live current-content read
        and the pinned read of the same hash share one cache entry.
        """
        if not _HEX_HASH.match(at):
            raise ServiceError(
                400, f"invalid content hash {at!r} for 'at'"
            )
        config_hash = eval_config_hash(options)
        etag = make_etag(verb, at, config_hash)
        key = (verb, at, config_hash)

        def build() -> bytes:
            rows = state.index.lookup_results(at, config_hash)
            if rows is None:
                raise ServiceError(
                    404,
                    f"no recorded results for content hash {at!r}",
                    code="version_not_found",
                    detail={"content_hash": at},
                )
            return _dumps(self._results_payload(ws_id, at, options, rows))

        return self._finish(state, key, etag, headers, build)

    def _evaluate_through(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        options: BatchOptions,
        config_hash: str,
    ):
        """The read-through miss: evaluate and commit via the index.

        Serialised on the registry's write lock so concurrent misses
        for the same workspace evaluate once and the index keeps
        exactly one writer at a time.  The runner probes, evaluates,
        and persists through :meth:`RegistryIndex.record_run` — the
        same single-writer path ``repro batch`` uses — so the
        committed rows are the ones a batch run would cache.

        Guarded by the registry's :class:`_CircuitBreaker`: while the
        circuit is open this raises 503 + ``Retry-After`` immediately,
        and any unexpected evaluation failure counts toward opening it.
        ``sqlite3.Error`` passes through untouched (the index outage
        path serves stale instead); a 409 for unevaluable *content* is
        a machinery success — it must not trip the breaker.
        """
        retry_after = state.breaker.acquire()
        if retry_after is not None:
            raise ServiceError(
                503,
                "evaluation circuit open after repeated failures; "
                f"retry in {retry_after}s",
                headers={"Retry-After": str(retry_after)},
                code="circuit_open",
            )
        try:
            with state.write_lock:
                probed = state.index.probe(path)
                if probed is not None:
                    rows = state.index.lookup_results(
                        probed.content_hash, config_hash
                    )
                    if rows is not None:
                        state.breaker.record_success()
                        return rows
                report = ShardedRunner(workers=1, options=options).run(
                    [str(path)], index=state.index
                )
        except sqlite3.Error:
            state.breaker.abort_probe()
            raise
        except ServiceError:
            raise
        except Exception as exc:
            state.breaker.record_failure()
            raise ServiceError(
                503,
                f"evaluation failed: {type(exc).__name__}: {exc}",
                headers={"Retry-After": "1"},
                code="evaluation_failed",
            ) from exc
        state.breaker.record_success()
        if report.skipped or not report.results:
            detail = report.skipped[0].error if report.skipped else "empty"
            raise ServiceError(
                409,
                f"workspace {ws_id!r} cannot be evaluated: {detail}",
                code="workspace_invalid",
            )
        return report.results

    @staticmethod
    def _results_payload(
        ws_id: str, content_hash: str, options: BatchOptions, rows
    ) -> Dict[str, object]:
        """One ranking/montecarlo body, identical for cached and fresh rows.

        ``rows`` are :class:`~repro.core.index.CachedResult` (index hit)
        or :class:`~repro.core.runtime.WorkspaceResult` (fresh) — the
        shared field names carry bit-identical binary64 floats either
        way, so the rendered bytes never depend on the cache state.
        """
        simulations = int(options.simulations)
        results = []
        for row in rows:
            entry: Dict[str, object] = {
                "sub_index": row.sub_index,
                "name": row.name,
                "n_alternatives": row.n_alternatives,
                "n_attributes": row.n_attributes,
                "best": {
                    "name": row.best_name,
                    "minimum": row.best_minimum,
                    "average": row.best_average,
                    "maximum": row.best_maximum,
                },
            }
            if simulations:
                entry["ever_best"] = row.ever_best
                entry["top5_fluctuation"] = row.top5_fluctuation
            results.append(entry)
        return {
            "workspace": ws_id,
            "content_hash": content_hash,
            "config": {
                "objectives": False,
                "simulations": simulations,
                "method": options.method if simulations else None,
                "seed": options.seed if simulations else None,
            },
            "results": results,
        }

    # -- group: the members-axis read-through ---------------------------

    def _serve_group(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        headers: Mapping[str, str],
    ) -> Response:
        """The group-decision result under the configured roster.

        Same read-through contract as ranking: the cache key (and the
        ETag) is the workspace content hash × the evaluation
        configuration hash, which for group runs folds in the member
        roster digest — so editing the roster file and restarting the
        server serves fresh results while every other cache row stays
        valid.  On a miss the workspace evaluates through the stacked
        members axis via :class:`~repro.core.runtime.ShardedRunner` and
        the rows commit back through the index, byte-identical to what
        ``repro group`` caches.
        """
        if self.members_spec is None:
            raise ServiceError(
                404,
                "no member roster configured; start the service with "
                "a members file (repro serve --members FILE)",
            )
        record = self._probe(state, ws_id, path)
        options = BatchOptions(group=self.members_spec)
        config_hash = eval_config_hash(options)
        etag = make_etag("group", record.content_hash, config_hash)
        key = ("group", record.content_hash, config_hash)

        def build() -> bytes:
            rows = state.index.lookup_results(record.content_hash, config_hash)
            if rows is None:
                rows = self._evaluate_through(
                    state, ws_id, path, options, config_hash
                )
            group_json = rows[0].group_json
            if group_json is None:  # pragma: no cover - defensive
                raise ServiceError(
                    409,
                    f"workspace {ws_id!r} has no group result",
                    code="workspace_invalid",
                )
            return _dumps(
                {
                    "workspace": ws_id,
                    "content_hash": record.content_hash,
                    "members_digest": self.members_digest,
                    "group": json.loads(group_json),
                }
            )

        return self._finish(
            state, key, etag, headers, build, stale_key=("group", ws_id)
        )

    # -- dominance / rank intervals: engine-backed, LRU-cached ----------

    def _serve_screening(
        self,
        state: RegistryState,
        verb: str,
        ws_id: str,
        path: Path,
        headers: Mapping[str, str],
    ) -> Response:
        record = self._probe(state, ws_id, path)
        etag = make_etag(verb, record.content_hash)
        key = (verb, record.content_hash)

        def build() -> bytes:
            try:
                compiled = _workspace.load_compiled_fast(str(path))
            except _LOAD_ERRORS as exc:
                raise ServiceError(
                    409,
                    f"workspace {ws_id!r} cannot be compiled: "
                    f"{type(exc).__name__}: {exc}",
                    code="workspace_invalid",
                ) from exc
            evaluator = BatchEvaluator(compiled)
            names = list(evaluator.alternative_names)
            if verb == "dominance":
                matrix = evaluator.dominance_matrix()
                dominated = matrix.any(axis=0)
                payload = {
                    "workspace": ws_id,
                    "content_hash": record.content_hash,
                    "alternatives": names,
                    "matrix": [[bool(x) for x in row] for row in matrix],
                    "non_dominated": [
                        name
                        for name, hit in zip(names, dominated)
                        if not hit
                    ],
                }
            else:
                intervals = evaluator.rank_intervals()
                payload = {
                    "workspace": ws_id,
                    "content_hash": record.content_hash,
                    "intervals": [
                        {
                            "name": name,
                            "best": intervals[name].best,
                            "worst": intervals[name].worst,
                        }
                        for name in names
                    ],
                }
            return _dumps(payload)

        return self._finish(
            state, key, etag, headers, build, stale_key=(verb, ws_id)
        )

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------

    def _h_versions(self, request: Request) -> Response:
        """Content-hash lineage: every recorded version of a workspace."""
        state = self._state_for(request)
        ws_id = request.path_params["id"]
        path = self._resolve(state, ws_id)
        try:
            record = self._probe(state, ws_id, path)
            history = state.index.version_history(path)
        except sqlite3.Error as exc:
            raise ServiceError(
                503,
                f"registry index unavailable "
                f"({type(exc).__name__}: {exc})",
                headers={"Retry-After": "5"},
                code="index_unavailable",
            ) from exc
        return Response(
            200,
            _dumps(
                {
                    "workspace": ws_id,
                    "registry": state.name,
                    "content_hash": record.content_hash,
                    "versions": history,
                }
            ),
        )

    def _h_tag_version(self, request: Request) -> Response:
        """Tag one recorded version (``{"content_hash", "tag"}``)."""
        state = self._state_for(request)
        ws_id = request.path_params["id"]
        doc = self._json_body(request.body)
        unknown = sorted(set(doc) - {"content_hash", "tag"})
        if unknown:
            raise ServiceError(400, f"unknown field(s): {', '.join(unknown)}")
        content_hash, tag = doc.get("content_hash"), doc.get("tag")
        if not isinstance(content_hash, str) or not _HEX_HASH.match(
            content_hash
        ):
            raise ServiceError(400, "'content_hash' must be a hex digest")
        if not isinstance(tag, str) or not tag:
            raise ServiceError(400, "'tag' must be a non-empty string")
        path = self._resolve(state, ws_id)
        try:
            self._probe(state, ws_id, path)
            tagged = state.index.tag_version(path, content_hash, tag)
        except sqlite3.Error as exc:
            raise ServiceError(
                503,
                f"registry index unavailable "
                f"({type(exc).__name__}: {exc})",
                headers={"Retry-After": "5"},
                code="index_unavailable",
            ) from exc
        if not tagged:
            raise ServiceError(
                404,
                f"no recorded version {content_hash!r} for "
                f"workspace {ws_id!r}",
                code="version_not_found",
                detail={"content_hash": content_hash},
            )
        return Response(
            200,
            _dumps(
                {
                    "workspace": ws_id,
                    "registry": state.name,
                    "content_hash": content_hash,
                    "tag": tag,
                }
            ),
        )

    # ------------------------------------------------------------------
    # POST .../evaluate
    # ------------------------------------------------------------------

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        """Parse a request body as a JSON object (400 otherwise)."""
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                400, f"request body is not JSON: {exc}"
            ) from exc
        if not isinstance(doc, dict):
            raise ServiceError(400, "request body must be a JSON object")
        return doc

    def _h_evaluate(self, request: Request) -> Response:
        """Ad-hoc evaluation of a posted workspace document.

        Accepts either the raw ``repro-workspace/1`` document or an
        envelope ``{"workspace": <document>, "simulations": N,
        "method": ..., "seed": ...}``.  Nothing touches the registry or
        the index — the problem never has a path, so there is nothing
        to fingerprint (the ``{registry}`` path segment only has to
        name a mounted registry).
        """
        self._state_for(request)  # 404 for unknown registries
        doc = self._json_body(request.body)
        simulations, method, seed = 0, "intervals", MC_SEED
        if "format" not in doc and "workspace" in doc:
            envelope, doc = doc, doc["workspace"]
            unknown = sorted(
                set(envelope) - {"workspace", "simulations", "method", "seed"}
            )
            if unknown:
                raise ServiceError(
                    400, f"unknown field(s): {', '.join(unknown)}"
                )
            simulations = envelope.get("simulations", 0)
            method = envelope.get("method", "intervals")
            seed = envelope.get("seed", MC_SEED)
            if not isinstance(simulations, int) or simulations < 0:
                raise ServiceError(
                    400, "simulations must be a non-negative integer"
                )
            if method not in _MC_METHODS:
                raise ServiceError(
                    400, f"method must be one of {', '.join(_MC_METHODS)}"
                )
            if not isinstance(seed, int):
                raise ServiceError(400, "seed must be an integer")
        if not isinstance(doc, dict):
            raise ServiceError(400, "workspace must be a JSON object")
        try:
            problem = _workspace.from_dict(doc)
            compiled = compile_problem(problem)
        except _LOAD_ERRORS as exc:
            raise ServiceError(
                400,
                f"invalid workspace document: {type(exc).__name__}: {exc}",
            ) from exc
        evaluator = BatchEvaluator(compiled)
        evaluation = evaluator.evaluate()
        payload: Dict[str, object] = {
            "problem": compiled.name,
            "n_alternatives": evaluator.n_alternatives,
            "n_attributes": evaluator.n_attributes,
            "best": evaluation.best.name,
            "ranking": [
                {
                    "rank": row.rank,
                    "name": row.name,
                    "minimum": row.minimum,
                    "average": row.average,
                    "maximum": row.maximum,
                }
                for row in evaluation
            ],
        }
        if simulations:
            result = evaluator.simulate(
                method=method,
                n_simulations=simulations,
                seed=seed,
                sample_utilities="missing",
            )
            payload["montecarlo"] = {
                "simulations": simulations,
                "method": method,
                "seed": seed,
                "ever_best": list(result.ever_best()),
                "top5_fluctuation": int(
                    result.max_fluctuation(result.top_k_by_mean(5))
                ),
            }
        return Response(200, _dumps(payload))

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
registries, each with its own index, response cache and circuit
breaker, so one registry's edit bursts or failure storms never
degrade another:

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
    The §V strict-dominance matrix.
``GET /v1/registries/{registry}/workspaces/{id}/rankintervals``
    Attainable-rank intervals.
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

Read-through contract: a read starts with
:meth:`~repro.core.index.RegistryIndex.examine`; a fresh row's cached
ranking/montecarlo rows are the *exact* floats ``repro batch`` stored.
Anything else is one :class:`~repro.core.runtime.ShardedRunner` run
under the registry's single writer lock, as in ``repro batch
--follow``: one derive, a delta patch, and fingerprint plus fresh rows
in one :meth:`~repro.core.index.RegistryIndex.record_run`, so the
server and the batch CLI share one cache and serve byte-identical
numbers in either direction.  A runner call that fails only fails a
read the index cannot answer without it.

Hardening: a static bearer token (``repro serve --auth-token``) gates
every non-public route; bodies ≥ :data:`_GZIP_MIN_BYTES` gzip when
the client sends ``Accept-Encoding: gzip`` (ETag-safe — the validator
names content identity and ``If-None-Match`` is checked before any
body is built).

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
from typing import Dict, List, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, unquote, urlsplit

from ..core import workspace as _workspace
from ..core.engine import BatchEvaluator, compile_problem
from ..core.group import load_members, members_digest
from ..core.index import RegistryIndex, eval_config_hash
from ..core.runtime import (
    BatchOptions,
    ShardedRunner,
    expand_registry_source,
)
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

#: A ranking read's options and their configuration hash, encoded once.
_RANKING_OPTIONS = BatchOptions()
_RANKING_CONFIG = eval_config_hash(_RANKING_OPTIONS)

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


def _unknown_workspace(ws_id: str) -> ServiceError:
    """The 404 for a workspace id naming no regular file."""
    return ServiceError(404, f"unknown workspace {ws_id!r}")


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
    threads; per-thread sqlite connections), response cache and
    circuit breaker.  All evaluation writes for one registry
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
        # The default registry's index file, for the server banner.
        self.index_path = default_state.index_path

    # -- single-registry compatibility properties -----------------------

    @property
    def index(self) -> RegistryIndex:
        """The default registry's index (legacy single-registry view)."""
        return self.federation.default.index

    @property
    def cache(self):
        """The default registry's response cache."""
        return self.federation.default.cache

    @property
    def breaker(self) -> _CircuitBreaker:
        """The default registry's evaluation circuit breaker."""
        return self.federation.default.breaker

    @breaker.setter
    def breaker(self, value: _CircuitBreaker) -> None:
        """Swap the default registry's breaker (tests inject clocks)."""
        self.federation.default.breaker = value

    def close(self) -> None:
        """Release every index's connections."""
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

    def _h_registry(self, request: Request) -> Response:
        """The workspace listing with identity fingerprints."""
        state = self._state_for(request)
        index = state.index
        workspaces = []
        to_record = []
        for path in map(
            Path, expand_registry_source(state.root, state.index_path)
        ):
            ws_id = path.relative_to(state.root).with_suffix("").as_posix()
            # a row it re-derives gets its artifact, so the next read
            # of that workspace mmaps instead of parsing it again
            record, status = index.probe(path, warm_artifact=True)
            if record is None:
                workspaces.append({"id": ws_id, "error": "unreadable"})
                continue
            if status != "fresh" or index.needs_restamp(record):
                to_record.append(record)
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
        if to_record:
            # the one read that records fingerprints without evaluating
            # (it lists files that parse but cannot be evaluated)
            with state.write_lock:
                index.record_run(to_record)
        payload = {
            "name": state.name,
            "registry": str(state.root),
            "index": index.status(),
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
        """The one workspace GET: options → probe → ETag → cached body.

        The registry's response cache holds one body per request key
        ``(verb, ws_id, config_hash)``; ``config_hash`` is
        :func:`~repro.core.index.eval_config_hash` of the read's options
        for ranking, montecarlo and group, and ``""`` for the screening
        verbs.  The ETag names the content the body was rendered from,
        so an edit replaces the key's entry instead of adding one.

        A pinned ``?at=<hash>`` read never probes or stores: it serves
        the live entry only when the ETags match and otherwise renders
        the recorded rows for that hash.  When the index raises
        ``sqlite3.Error``, a live read replays its key's last body with
        ``X-Cache: stale`` and ``Warning: 110``; a pinned read replays
        only an exact ETag match; anything else answers 503 +
        ``Retry-After``.
        """
        state = self._state_for(request)
        ws_id = request.path_params["id"]
        path = self._resolve(state, ws_id)
        options = self._verb_options(verb, request.params)
        if options is None:
            config_hash = ""
        elif options is _RANKING_OPTIONS:
            config_hash = _RANKING_CONFIG
        else:
            config_hash = eval_config_hash(options)
        key = (verb, ws_id, config_hash)
        at = request.params.get("at")
        if at is not None and not path.is_file():
            raise _unknown_workspace(ws_id)
        etag = None
        try:
            if at is None:
                record = self._probe(state, ws_id, path, options)
                content_hash = record.content_hash
            elif _HEX_HASH.match(str(at)):
                content_hash = str(at)
            else:
                raise ServiceError(
                    400, f"invalid content hash {at!r} for 'at'"
                )
            etag = (
                make_etag(verb, content_hash)
                if options is None
                else make_etag(verb, content_hash, config_hash)
            )

            def build() -> bytes:
                if options is None:
                    return _dumps(
                        self._screening_payload(
                            verb, ws_id, path, content_hash
                        )
                    )
                rows = state.index.lookup_results(content_hash, config_hash)
                if rows is None and at is not None:
                    raise ServiceError(
                        404,
                        f"no recorded results for content hash {at!r}",
                        code="version_not_found",
                        detail={"content_hash": at},
                    )
                if rows is None:
                    rows = self._evaluate_through(
                        state, ws_id, path, options
                    )
                if verb == "group":
                    return _dumps(
                        self._group_payload(ws_id, content_hash, rows)
                    )
                return _dumps(
                    self._results_payload(ws_id, content_hash, options, rows)
                )

            return self._finish(
                state, key, etag, request.headers, build, store=at is None
            )
        except sqlite3.Error as exc:
            state.breaker.abort_probe()
            # a live read replays its key's last body whatever its
            # version; a pinned read only the version it names
            entry = state.cache.get(key, etag if at is not None else None)
            if entry is None:
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
                entry.body,
                headers={
                    "ETag": entry.etag,
                    "X-Cache": "stale",
                    "Warning": '110 - "Response is Stale"',
                },
            )

    @staticmethod
    def _resolve(state: RegistryState, ws_id: str) -> Path:
        """The registry file behind a workspace id (400 when malformed).

        Not stat'ed here: a live read's probe stats the file anyway and
        answers 404 when it is no regular file; a pinned read checks.
        """
        segments = ws_id.split("/")
        if not ws_id or any(s in ("", ".", "..") for s in segments):
            raise ServiceError(400, f"invalid workspace id {ws_id!r}")
        return state.root / (ws_id + ".json")

    def _verb_options(
        self, verb: str, params: Mapping[str, object]
    ) -> Optional[BatchOptions]:
        """The evaluation options a verb reads under (``None``: screening).

        A group read needs the server's member roster: without one the
        endpoint answers 404.  The roster digest is part of the group
        options' configuration hash, so a restart with another roster
        serves fresh results while every other cached row stays valid.
        """
        if verb == "ranking":
            return _RANKING_OPTIONS
        if verb == "montecarlo":
            return BatchOptions(
                simulations=int(params["simulations"]),  # type: ignore[arg-type]
                method=str(params["method"]),
                seed=int(params["seed"]),  # type: ignore[arg-type]
            )
        if verb == "group":
            if self.members_spec is None:
                raise ServiceError(
                    404,
                    "no member roster configured; start the service with "
                    "a members file (repro serve --members FILE)",
                )
            return BatchOptions(group=self.members_spec)
        return None

    def _probe(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        options: Optional[BatchOptions] = None,
    ):
        """The workspace's current row, recorded by the runner when due.

        A ``fresh`` row that needs no re-stamp is returned as stored.
        Any other goes through one :meth:`_evaluate_through` run under
        the read's ``options`` (ranking defaults when ``None``), as a
        ``--follow`` cycle would: one derive, a delta patch, one
        ``record_run`` and a fresh artifact for the screening reads.
        A read-only index cannot record, so there it derives instead.

        Recording is an optimisation, so a failed run (open circuit,
        evaluation error, content the runner skips) does not fail a
        read the index can answer: the row is derived read-only and
        its fingerprint recorded alone, as the listing does.  Only a
        read whose results the index lacks raises the run's error,
        so a failing evaluation is attempted and counted once.
        """
        index = state.index
        record, status, _ = index.examine(path)
        if status != "fresh" and not path.is_file():
            raise _unknown_workspace(ws_id)
        recordable = not index.read_only
        if status == "fresh" and not (recordable and index.needs_restamp(record)):
            return record
        failure = None
        if recordable:
            try:
                self._evaluate_through(state, ws_id, path, options or BatchOptions())
            except ServiceError as exc:
                failure = exc
        record, _ = index.probe(path)
        if record is None:
            raise ServiceError(
                409,
                f"workspace {ws_id!r} exists but cannot be parsed",
                code="workspace_invalid",
            )
        if failure is not None:
            with state.write_lock:
                index.record_run([record])
            if options is not None:
                config_hash = eval_config_hash(options)
                if index.lookup_results(record.content_hash, config_hash) is None:
                    raise failure
        return record

    @staticmethod
    def _finish(
        state: RegistryState,
        key: Tuple[str, str, str],
        etag: str,
        headers: Mapping[str, str],
        build,
        store: bool = True,
    ) -> Response:
        """The validator → cache → build tail of every workspace GET.

        ``build()`` runs only when the client validator misses and the
        key's entry is absent or was rendered from another version
        (another ETag).  Its body then replaces the entry, unless
        ``store`` is false: a pinned read renders an old version
        without evicting the live one.
        """
        if if_none_match_matches(headers.get("if-none-match"), etag):
            return Response(304, b"", headers={"ETag": etag})
        cached = state.cache.get(key, etag)
        hit = cached is not None
        if cached is None:
            cached = CachedResponse(body=build(), etag=etag)
            if store:
                state.cache.put(key, cached)
        _cache_lookups(hit).inc(registry=state.name)
        return Response(
            200,
            cached.body,
            headers={"ETag": etag, "X-Cache": "hit" if hit else "miss"},
        )

    def _evaluate_through(
        self,
        state: RegistryState,
        ws_id: str,
        path: Path,
        options: BatchOptions,
    ):
        """The read-through: probe, evaluate and commit via the runner.

        Serialised on the registry's write lock so the index keeps
        exactly one writer at a time.  The runner probes, evaluates,
        and persists through :meth:`RegistryIndex.record_run` — the
        same single-writer path ``repro batch`` uses — so the
        committed rows are the ones a batch run would cache; a row
        another thread committed while this one waited for the lock
        comes back from the runner's own probe as cached.

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

    def _group_payload(
        self, ws_id: str, content_hash: str, rows
    ) -> Dict[str, object]:
        """One group body: the roster's result rows for the workspace.

        Same read-through contract as ranking: on a miss the workspace
        evaluates through the stacked members axis via
        :class:`~repro.core.runtime.ShardedRunner` and the rows commit
        back through the index, byte-identical to what ``repro group``
        caches.
        """
        group_json = rows[0].group_json
        if group_json is None:  # pragma: no cover - defensive
            raise ServiceError(
                409,
                f"workspace {ws_id!r} has no group result",
                code="workspace_invalid",
            )
        return {
            "workspace": ws_id,
            "content_hash": content_hash,
            "members_digest": self.members_digest,
            "group": json.loads(group_json),
        }

    @staticmethod
    def _screening_payload(
        verb: str, ws_id: str, path: Path, content_hash: str
    ) -> Dict[str, object]:
        """One dominance or rank-interval body, computed by the engine."""
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
            return {
                "workspace": ws_id,
                "content_hash": content_hash,
                "alternatives": names,
                "matrix": [[bool(x) for x in row] for row in matrix],
                "non_dominated": [
                    name for name, hit in zip(names, dominated) if not hit
                ],
            }
        intervals = evaluator.rank_intervals()
        return {
            "workspace": ws_id,
            "content_hash": content_hash,
            "intervals": [
                {
                    "name": name,
                    "best": intervals[name].best,
                    "worst": intervals[name].worst,
                }
                for name in names
            ],
        }

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

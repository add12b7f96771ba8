"""Declarative route table for the registry query service.

PR 10's API redesign: instead of an ad-hoc ``if/elif`` dispatch in
:mod:`repro.service.app`, every endpoint is declared as a
:class:`Route` — HTTP method, path template, handler name, query
parameter specs, auth class and deprecation status — and a
:class:`Router` compiles the table into a matcher.  One declaration
drives four consumers:

* **dispatch** — :meth:`Router.match` resolves ``(method, path)`` to
  ``(route, path_params)``, with RFC-correct 404/405 discrimination
  (a path that matches a template with a different method answers
  ``405`` + ``Allow``, not ``404``);
* **param coercion** — :func:`coerce_query` validates and converts a
  request's query string against the route's :class:`QueryParam`
  specs, so handlers receive typed values and unknown parameters are
  rejected uniformly;
* **the OpenAPI document** — :func:`build_openapi` renders the table
  as an OpenAPI 3.1 spec, served at ``GET /v1/openapi.json`` and
  drift-checked against ``docs/service.md`` by
  ``tools/check_openapi.py``;
* **metrics labels** — :attr:`Route.label` is the bounded-cardinality
  endpoint label (``/v1/registries/{registry}/workspaces/{id}/ranking``)
  the request counters use; requests no route matches share the one
  label ``(unmatched)``.

Path templates use ``{name}`` for one segment and ``{name...}`` for a
greedy run of one or more segments (workspace ids may contain ``/``).

Error model
-----------
:class:`ServiceError` carries the uniform JSON error envelope every
4xx/5xx response renders::

    {"error": {"code": "<machine-readable>", "message": "...",
               "detail": ... | null}}

The code vocabulary is :data:`ERROR_CODES` (documented in
``docs/service.md`` and embedded in the OpenAPI components).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ServiceError",
    "ERROR_CODES",
    "DEFAULT_CODES",
    "QueryParam",
    "Route",
    "Router",
    "coerce_query",
    "build_openapi",
    "OPENAPI_VERSION",
    "API_VERSION",
]

#: The spec dialect ``build_openapi`` emits.
OPENAPI_VERSION = "3.1.0"

#: The service's API version (the ``/v1`` prefix and ``info.version``).
API_VERSION = "1"

#: Machine-readable error codes and what each one means.  Every
#: 4xx/5xx body carries exactly one of these in ``error.code``; the
#: table is rendered into docs/service.md and the OpenAPI components.
ERROR_CODES: Dict[str, str] = {
    "bad_request": "Malformed id, query parameter or request body.",
    "unauthorized": "Missing or malformed bearer credentials (401).",
    "forbidden": "Credentials present but the token does not match (403).",
    "not_found": "No route or resource at this path.",
    "registry_not_found": "No registry mounted under this name.",
    "version_not_found": (
        "No recorded results for the pinned content hash "
        "(or an unknown hash for tagging)."
    ),
    "method_not_allowed": "The path exists but not for this HTTP method.",
    "conflict": "The request conflicts with current state.",
    "workspace_invalid": (
        "The workspace file exists but cannot be parsed or evaluated."
    ),
    "circuit_open": (
        "The evaluation circuit breaker is open after repeated failures."
    ),
    "evaluation_failed": "An evaluation attempt failed unexpectedly.",
    "index_unavailable": (
        "The registry index is unreachable and no stale copy exists."
    ),
    "internal": "Unhandled server error.",
}

#: Fallback ``error.code`` per HTTP status for errors raised without
#: an explicit code.
DEFAULT_CODES: Dict[int, str] = {
    400: "bad_request",
    401: "unauthorized",
    403: "forbidden",
    404: "not_found",
    405: "method_not_allowed",
    409: "conflict",
    500: "internal",
    503: "index_unavailable",
}


class ServiceError(Exception):
    """An error response: HTTP ``status``, envelope code and message."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Mapping[str, str]] = None,
        code: Optional[str] = None,
        detail: Optional[object] = None,
    ) -> None:
        """Record status, envelope fields and extra headers."""
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})
        self.code = code or DEFAULT_CODES.get(status, "error")
        self.detail = detail

    def envelope(self) -> Dict[str, object]:
        """The uniform JSON error body this error renders as."""
        return {
            "error": {
                "code": self.code,
                "message": self.message,
                "detail": self.detail,
            }
        }


@dataclass(frozen=True)
class QueryParam:
    """One declared query parameter: name, type and constraints.

    ``kind`` is ``"int"`` or ``"str"``; ``choices`` restricts string
    values; ``minimum`` bounds integers.  ``default`` is returned when
    the parameter is absent (``None`` means "absent stays absent").
    """

    name: str
    kind: str = "str"
    default: Optional[object] = None
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[int] = None
    description: str = ""


_PARAM_SEGMENT = re.compile(r"^\{([a-zA-Z_][a-zA-Z0-9_]*)(\.\.\.)?\}$")


@dataclass(frozen=True)
class Route:
    """One declared endpoint of the service.

    Attributes
    ----------
    method : str
        HTTP method (``GET``/``POST``/``DELETE``).
    template : str
        Path template; ``{name}`` matches one segment, ``{name...}``
        greedily matches one or more (workspace ids contain ``/``).
    handler : str
        Name of the :class:`~repro.service.app.ServiceApp` method that
        serves the route.
    name : str
        Unique operation id (also the OpenAPI ``operationId``).
    summary : str
        One-line human description (rendered into the spec).
    auth : str
        Route class for bearer auth: ``"public"`` routes never require
        a token; ``"read"`` and ``"admin"`` routes require it once the
        service is started with ``--auth-token``.
    scope : str
        How the route resolves a registry: ``"registry"`` (from the
        ``{registry}`` path parameter), ``"default"`` (legacy alias of
        the default registry) or ``"service"`` (no registry).
    deprecated : bool
        Legacy alias answering with ``Deprecation``/``Sunset`` headers.
    params : tuple of QueryParam
        Declared query parameters (anything else is a 400).
    """

    method: str
    template: str
    handler: str
    name: str
    summary: str
    auth: str = "read"
    scope: str = "service"
    deprecated: bool = False
    params: Tuple[QueryParam, ...] = field(default_factory=tuple)

    @property
    def label(self) -> str:
        """The metrics/OpenAPI path: the template with ``...`` elided."""
        return self.template.replace("...", "")


class _Compiled:
    """One route's template, split for matching."""

    def __init__(self, route: Route) -> None:
        """Parse the template into literal / param / rest segments."""
        self.route = route
        self.segments: List[Tuple[str, str]] = []
        rest_positions = []
        for raw in [s for s in route.template.split("/") if s]:
            match = _PARAM_SEGMENT.match(raw)
            if match is None:
                self.segments.append(("literal", raw))
            elif match.group(2):
                rest_positions.append(len(self.segments))
                self.segments.append(("rest", match.group(1)))
            else:
                self.segments.append(("param", match.group(1)))
        if len(rest_positions) > 1:
            raise ValueError(
                f"{route.template}: at most one greedy segment allowed"
            )
        self.rest_at = rest_positions[0] if rest_positions else None

    def match(self, parts: Sequence[str]) -> Optional[Dict[str, str]]:
        """Path params when ``parts`` matches this template, else None."""
        segs = self.segments
        if self.rest_at is None:
            if len(parts) != len(segs):
                return None
            return self._match_run(segs, parts)
        if len(parts) < len(segs):  # the greedy segment needs >= 1 part
            return None
        head, rest_name = segs[: self.rest_at], segs[self.rest_at][1]
        tail = segs[self.rest_at + 1 :]
        captured = self._match_run(head, parts[: len(head)])
        if captured is None:
            return None
        tail_parts = parts[len(parts) - len(tail) :] if tail else []
        tail_captured = self._match_run(tail, tail_parts)
        if tail_captured is None:
            return None
        middle = parts[len(head) : len(parts) - len(tail)]
        captured.update(tail_captured)
        captured[rest_name] = "/".join(middle)
        return captured

    @staticmethod
    def _match_run(
        segs: Sequence[Tuple[str, str]], parts: Sequence[str]
    ) -> Optional[Dict[str, str]]:
        captured: Dict[str, str] = {}
        for (kind, value), part in zip(segs, parts):
            if kind == "literal":
                if part != value:
                    return None
            else:
                captured[value] = part
        return captured


class Router:
    """The compiled route table: ``(method, path)`` → route + params."""

    def __init__(self, routes: Sequence[Route]) -> None:
        """Compile ``routes``; route names must be unique."""
        names = [route.name for route in routes]
        if len(set(names)) != len(names):
            raise ValueError("route names must be unique")
        self.routes: Tuple[Route, ...] = tuple(routes)
        self._compiled = [_Compiled(route) for route in routes]

    def match(self, method: str, path: str) -> Tuple[Route, Dict[str, str]]:
        """Resolve one request line to ``(route, path_params)``.

        Raises :class:`ServiceError` 404 when no template matches the
        path, and 405 (with an ``Allow`` header) when a template
        matches under a different method.
        """
        parts = [p for p in path.split("/") if p]
        allowed: List[str] = []
        for compiled in self._compiled:
            params = compiled.match(parts)
            if params is None:
                continue
            if compiled.route.method == method:
                return compiled.route, params
            allowed.append(compiled.route.method)
        if allowed:
            raise ServiceError(
                405,
                f"{method} not allowed on {path!r}",
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        raise ServiceError(404, f"unknown endpoint {path!r}")


def coerce_query(
    route: Route, query: Mapping[str, List[str]]
) -> Dict[str, object]:
    """Validate and convert a request's query against the route's specs.

    Unknown parameter names are a 400 (``bad_request``); declared
    parameters are coerced per their :class:`QueryParam` (last value
    wins, matching ``parse_qs`` conventions).  Returns a dict of every
    declared parameter to its coerced value or default.
    """
    allowed = {param.name for param in route.params}
    unknown = sorted(set(query) - allowed)
    if unknown:
        raise ServiceError(
            400, f"unknown query parameter(s): {', '.join(unknown)}"
        )
    coerced: Dict[str, object] = {}
    for param in route.params:
        values = query.get(param.name)
        if not values:
            coerced[param.name] = param.default
            continue
        raw = values[-1]
        if param.kind == "int":
            try:
                value: object = int(raw)
            except ValueError:
                raise ServiceError(
                    400, f"query parameter {param.name!r} must be an integer"
                ) from None
            if param.minimum is not None and value < param.minimum:
                raise ServiceError(
                    400,
                    f"query parameter {param.name!r} must be "
                    f">= {param.minimum}",
                )
        else:
            value = raw
            if param.choices is not None and raw not in param.choices:
                raise ServiceError(
                    400,
                    f"{param.name} must be one of "
                    f"{', '.join(param.choices)}; got {raw!r}",
                )
        coerced[param.name] = value
    return coerced


def _param_schema(param: QueryParam) -> Dict[str, object]:
    schema: Dict[str, object] = {
        "type": "integer" if param.kind == "int" else "string"
    }
    if param.choices is not None:
        schema["enum"] = list(param.choices)
    if param.minimum is not None:
        schema["minimum"] = param.minimum
    if param.default is not None:
        schema["default"] = param.default
    return schema


def build_openapi(routes: Sequence[Route]) -> Dict[str, object]:
    """The OpenAPI 3.1 document generated from the route table.

    Served at ``GET /v1/openapi.json``; because it is *generated*, the
    spec can never drift from dispatch — ``tools/check_openapi.py``
    additionally pins ``docs/service.md`` to the same table.
    """
    paths: Dict[str, Dict[str, object]] = {}
    path_param_names = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")
    for route in routes:
        spec_path = route.label
        parameters: List[Dict[str, object]] = [
            {
                "name": name,
                "in": "path",
                "required": True,
                "schema": {"type": "string"},
            }
            for name in path_param_names.findall(spec_path)
        ]
        parameters.extend(
            {
                "name": param.name,
                "in": "query",
                "required": False,
                "description": param.description,
                "schema": _param_schema(param),
            }
            for param in route.params
        )
        operation: Dict[str, object] = {
            "operationId": route.name,
            "summary": route.summary,
            "x-auth-class": route.auth,
            "responses": {
                "200": {"description": "Success."},
                "default": {
                    "description": "Error envelope.",
                    "content": {
                        "application/json": {
                            "schema": {
                                "$ref": (
                                    "#/components/schemas/ErrorEnvelope"
                                )
                            }
                        }
                    },
                },
            },
        }
        if parameters:
            operation["parameters"] = parameters
        if route.deprecated:
            operation["deprecated"] = True
        if route.auth != "public":
            operation["security"] = [{"bearerAuth": []}, {}]
        paths.setdefault(spec_path, {})[route.method.lower()] = operation
    return {
        "openapi": OPENAPI_VERSION,
        "info": {
            "title": "repro registry query service",
            "version": API_VERSION,
            "description": (
                "Federated multi-registry MAUT evaluation service: "
                "registries → workspaces → versions → "
                "results.  See docs/service.md."
            ),
        },
        "paths": dict(sorted(paths.items())),
        "components": {
            "securitySchemes": {
                "bearerAuth": {
                    "type": "http",
                    "scheme": "bearer",
                    "description": (
                        "Static token configured with "
                        "`repro serve --auth-token`; optional when the "
                        "service runs without one."
                    ),
                }
            },
            "schemas": {
                "ErrorEnvelope": {
                    "type": "object",
                    "required": ["error"],
                    "properties": {
                        "error": {
                            "type": "object",
                            "required": ["code", "message", "detail"],
                            "properties": {
                                "code": {
                                    "type": "string",
                                    "enum": sorted(ERROR_CODES),
                                },
                                "message": {"type": "string"},
                                "detail": {},
                            },
                        }
                    },
                }
            },
        },
    }

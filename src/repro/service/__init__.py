"""The federated registry query service: HTTP over registry indexes.

The reuse workflow the paper targets is repository-centric — many
analysts querying shared registries of candidate shortlists, not each
recomputing MAUT rankings locally.  This package serves one *or many*
persistent registry indexes (:mod:`repro.core.index`) over a
versioned, spec-first HTTP API:

* :mod:`repro.service.routes` — the declarative route table
  (:class:`~repro.service.routes.Route` /
  :class:`~repro.service.routes.Router`), the uniform JSON error
  envelope (:class:`~repro.service.routes.ServiceError`) and the
  OpenAPI 3.1 generator (:func:`~repro.service.routes.build_openapi`);
* :mod:`repro.service.federation` — the mount table of named
  registries (:class:`~repro.service.federation.Federation`), each
  with its own index, caches and circuit breaker, plus
  registry-to-registry sync
  (:func:`~repro.service.federation.pull_registry`);
* :mod:`repro.service.app` — the request handling
  (:class:`~repro.service.app.ServiceApp`), independent of any socket
  so tests drive it directly;
* :mod:`repro.service.cache` — the in-process content-hash-keyed LRU
  of hot responses sitting above the sqlite index, the ETag machinery
  (``If-None-Match`` → 304) and the deterministic gzip helpers;
* :mod:`repro.service.server` — a threaded keep-alive HTTP/1.1
  transport (one ``sendall`` per response) with graceful shutdown and
  an access log, plus the
  :func:`~repro.service.server.ServiceServer` lifecycle wrapper the
  ``repro serve`` CLI command and the tests share.

Reads are *read-through*: an index hit serves the exact cached floats
from ``RegistryIndex.results``; a miss falls back to a
:class:`~repro.core.runtime.ShardedRunner` compile-and-evaluate and
commits the fresh rows back through the index's single-writer path, so
the server and ``repro batch`` share one cache and stay byte-identical.
See ``docs/service.md``.
"""

from .app import ROUTES, ServiceApp, ServiceError
from .cache import ResponseCache, make_etag
from .federation import Federation, PullReport, pull_registry
from .routes import Route, Router, build_openapi
from .server import RegistryHTTPServer, ServiceServer

__all__ = [
    "ServiceApp",
    "ServiceError",
    "ResponseCache",
    "make_etag",
    "RegistryHTTPServer",
    "ServiceServer",
    "ROUTES",
    "Route",
    "Router",
    "build_openapi",
    "Federation",
    "PullReport",
    "pull_registry",
]

"""Threaded stdlib HTTP server for the registry query service.

Adapts a :class:`~repro.service.app.ServiceApp` onto
``http.server.ThreadingHTTPServer``: HTTP/1.1 keep-alive (one client
connection can pipeline thousands of warm cache hits), a bounded
worker-thread budget, a structured JSON-lines access log (ISO-8601
timestamp, method, path, status, duration, request id — one object
per line, machine-parseable), and graceful shutdown that drains
in-flight requests before the index's sqlite connections close.

:class:`ServiceServer` is the lifecycle wrapper shared by the
``repro serve`` CLI command, the service tests and
``benchmarks/bench_service.py`` — construct, ``start()`` (binds and
serves on a background thread; ``port=0`` picks an ephemeral port),
``stop()`` (or use it as a context manager).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Mapping, Optional, Union

from .app import Response, ServiceApp

__all__ = ["RegistryHTTPServer", "ServiceServer"]


class _Handler(BaseHTTPRequestHandler):
    """One request: delegate to the app, write status/headers/body."""

    server_version = "repro-registry/1"
    protocol_version = "HTTP/1.1"
    # status+headers and body leave as separate small sends; letting
    # Nagle coalesce them against delayed ACKs costs ~40 ms per
    # keep-alive response — three orders of magnitude over a warm hit.
    disable_nagle_algorithm = True
    # idle keep-alive connections are dropped after this many seconds,
    # so parked clients cost a blocked thread only temporarily
    timeout = 30

    def _dispatch(self, method: str) -> None:
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        # the worker budget bounds concurrent *request processing*,
        # not connections: an idle keep-alive client holds no slot
        with self.server._slots:
            response: Response = self.server.app.handle(
                method, self.path, dict(self.headers.items()), body
            )
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        if response.status != 304:
            self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        if response.body:
            self.wfile.write(response.body)
        self._log_access(method, response, started)

    def do_GET(self) -> None:
        """Serve one GET request through the app."""
        self._dispatch("GET")

    def do_POST(self) -> None:
        """Serve one POST request through the app."""
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        """Serve one DELETE request through the app (unmounts)."""
        self._dispatch("DELETE")

    def _log_access(
        self, method: str, response: Response, started: float
    ) -> None:
        """One JSON object per request, or nothing when quiet."""
        stream = self.server.access_log
        if stream is None:
            return
        line = {
            "ts": datetime.now(timezone.utc)
            .astimezone()
            .isoformat(timespec="milliseconds"),
            "method": method,
            "path": self.path,
            "status": response.status,
            "duration_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "request_id": response.headers.get("X-Request-Id", ""),
        }
        stream.write(json.dumps(line, separators=(",", ":")) + "\n")

    def log_request(self, code="-", size="-") -> None:
        """Suppressed: :meth:`_log_access` is the access log."""

    def log_message(self, format: str, *args) -> None:
        """Non-access diagnostics (parse errors etc.), JSON-framed."""
        stream = self.server.access_log
        if stream is None:
            return
        line = {
            "ts": datetime.now(timezone.utc)
            .astimezone()
            .isoformat(timespec="milliseconds"),
            "message": format % args,
        }
        stream.write(json.dumps(line, separators=(",", ":")) + "\n")


class RegistryHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one :class:`ServiceApp`.

    One thread per connection (the mixin's model), but a bounded
    semaphore caps *concurrent request processing* at ``workers`` —
    excess requests wait for a slot while idle keep-alive connections
    hold nothing and are reaped by the handler's socket timeout, so
    parked clients cannot starve the server.  ``access_log=None``
    silences the access log (tests, benchmarks).
    """

    daemon_threads = True

    def __init__(
        self,
        address,
        app: ServiceApp,
        workers: int = 8,
        access_log: Optional[IO[str]] = sys.stderr,
    ) -> None:
        """Bind ``address`` and route every request through ``app``."""
        if workers < 1:
            raise ValueError("workers must be positive")
        self.app = app
        self.workers = workers
        self.access_log = access_log
        self._slots = threading.BoundedSemaphore(workers)
        super().__init__(address, _Handler)


class ServiceServer:
    """Lifecycle wrapper: app + server + background serving thread.

    >>> with ServiceServer("registry/", port=0) as server:
    ...     urllib.request.urlopen(server.url + "/healthz")

    ``stop()`` drains in-flight requests (``shutdown``), closes the
    listening socket, then releases the app's index connections — the
    graceful order that never strands a request on a closed database.
    """

    def __init__(
        self,
        registry_dir: Union[str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        index_path: Optional[Union[str, Path]] = None,
        cache_size: int = 1024,
        access_log: Optional[IO[str]] = sys.stderr,
        members_path: Optional[Union[str, Path]] = None,
        mounts: Optional[Mapping[str, Union[str, Path]]] = None,
        auth_token: Optional[str] = None,
    ) -> None:
        """Build the app and bind the server (not yet serving)."""
        self.app = ServiceApp(
            registry_dir,
            index_path=index_path,
            cache_size=cache_size,
            members_path=members_path,
            mounts=mounts,
            auth_token=auth_token,
        )
        try:
            self.httpd = RegistryHTTPServer(
                (host, port), self.app, workers=workers, access_log=access_log
            )
        except BaseException:
            self.app.close()
            raise
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (real port even when asked for 0)."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound server, e.g. ``http://127.0.0.1:8321``."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServiceServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Graceful shutdown: drain, close the socket, close the index."""
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.httpd.server_close()
        self.app.close()

    def __enter__(self) -> "ServiceServer":
        """Start serving on entry to a ``with`` block."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the server on ``with`` block exit."""
        self.stop()

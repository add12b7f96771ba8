"""Threaded HTTP/1.1 server for the registry query service.

Adapts a :class:`~repro.service.app.ServiceApp` onto
``http.server.ThreadingHTTPServer``, which accepts connections and
runs one thread per connection.  The request handler is a lean
keep-alive reader, not ``http.server``'s: it reads the request line,
the header lines into a dict (``readline``, no ``email`` parser) and
a ``Content-Length`` body, calls the app under a bounded worker-slot
budget, and answers with one ``sendall`` of status line, headers and
body.  A connection serves requests until the client closes it, asks
for ``Connection: close``, speaks HTTP/1.0 without
``Connection: keep-alive``, or idles for 30 s.

Input the reader cannot serve gets the answer ``http.server`` gives,
byte for byte, built from ``BaseHTTPRequestHandler``'s status phrases
and error page: 400 for a malformed request line (a bare HTML page,
HTTP/0.9 style, while the line's version is unknown), 414 for a
request line over 64 KiB, 431 for an over-long header line or more
than 99 headers, 501 for a method other than GET, POST and DELETE,
505 for HTTP/2 and later.  Each error answer closes the connection
and writes a ``message`` line to the access log.  ``Expect:
100-continue`` is answered with ``100 Continue`` before the body is
read, as curl expects for any body over 1 KiB.

The access log is structured JSON lines (ISO-8601 timestamp, method,
path, status, duration, request id — one object per line,
machine-parseable); graceful shutdown drains in-flight requests before
the index's sqlite connections close.

:class:`ServiceServer` is the lifecycle wrapper shared by the
``repro serve`` CLI command, the service tests and
``benchmarks/bench_service.py`` — construct, ``start()`` (binds and
serves on a background thread; ``port=0`` picks an ephemeral port),
``stop()`` (or use it as a context manager).
"""

from __future__ import annotations

import html
import json
import re
import socketserver
import sys
import threading
import time
from datetime import datetime, timezone
from email.utils import formatdate
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import IO, Dict, Mapping, Optional, Tuple, Union

from .app import ServiceApp

__all__ = ["RegistryHTTPServer", "ServiceServer"]

#: ``http.client``'s limits, which ``http.server`` applies to requests
_MAXLINE = 65536
_MAXHEADERS = 100
_METHODS = frozenset({"GET", "POST", "DELETE"})
_RESPONSES = BaseHTTPRequestHandler.responses
_SERVER = f"Server: repro-registry/1 {BaseHTTPRequestHandler.sys_version}\r\n"
#: the start of a header field line, as the ``email`` parser reads one
_FIELD = re.compile(r"[\x21-\x39\x3b-\x7e]*:")


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token; None if malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # digits int() refuses, such as superscripts
        return None


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a request, answer it, until it closes."""

    # ``100 Continue`` and pipelined answers are small writes that
    # follow one another; Nagle would hold each second one for the
    # client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True
    # idle keep-alive connections are dropped after this many seconds,
    # so parked clients cost a blocked thread only temporarily
    timeout = 30

    def handle(self) -> None:
        """Serve requests until one of them ends the connection."""
        try:
            while self._serve_one():
                pass
        except TimeoutError as exc:
            self._log(message="Request timed out: %r" % (exc,))

    def _serve_one(self) -> bool:
        """Answer one request; True to keep the connection open."""
        raw = self.rfile.readline(_MAXLINE + 1)
        if len(raw) > _MAXLINE:
            self._error("", 414)
            return False
        requestline = str(raw, "iso-8859-1").rstrip("\r\n")
        words = requestline.split()
        if not words:  # end of input, or an empty line
            return False
        # an error answered before the version is known is a bare page
        version = "HTTP/0.9"
        keep_alive = False
        if len(words) >= 3:
            number = _version_number(words[-1])
            if number is None:
                self._error(
                    version, 400, "Bad request version (%r)" % words[-1]
                )
                return False
            if number >= (2, 0):
                self._error(
                    version, 505, "Invalid HTTP version (%s)" % words[-1][5:]
                )
                return False
            keep_alive = number >= (1, 1)
            version = words[-1]
        if not 2 <= len(words) <= 3:
            self._error(version, 400, "Bad request syntax (%r)" % requestline)
            return False
        method, target = words[:2]
        if len(words) == 2:
            keep_alive = False
            if method != "GET":
                self._error(
                    version, 400, "Bad HTTP/0.9 request type (%r)" % method
                )
                return False
        if target.startswith("//"):
            # never let a client-relative "//host/path" reach the app
            target = "/" + target.lstrip("/")
        headers = self._read_headers(version)
        if headers is None:
            return False
        connection = headers.get("connection", "").lower()
        if connection == "close":
            keep_alive = False
        elif connection == "keep-alive":
            keep_alive = True
        if (
            headers.get("expect", "").lower() == "100-continue"
            and version >= "HTTP/1.1"
        ):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        if method not in _METHODS:
            self._error(
                version, 501, "Unsupported method (%r)" % method, method=method
            )
            return False
        self._dispatch(method, target, version, headers)
        return keep_alive

    def _read_headers(self, version: str) -> Optional[Dict[str, str]]:
        """Header fields by lower-cased name (a repeated field keeps its
        last value), or None once a 431 answer went out.

        Reads the ``email`` parser's way: a line starting with a space
        or tab continues the field before it, ``From `` lines and
        nameless fields are skipped, and the first line that is no
        field ends the fields (the rest, up to the blank line, is read
        and ignored).
        """
        headers: Dict[str, str] = {}
        name: Optional[str] = None  # the field a continuation extends
        value = ""
        ended = False
        count = 0  # lines read, the blank one included
        while True:
            line = self.rfile.readline(_MAXLINE + 1)
            count += 1
            if len(line) > _MAXLINE:
                self._error(
                    version,
                    431,
                    "Line too long",
                    f"got more than {_MAXLINE} bytes when reading header line",
                )
                return None
            if count > _MAXHEADERS:
                self._error(
                    version,
                    431,
                    "Too many headers",
                    f"got more than {_MAXHEADERS} headers",
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            if ended:
                continue
            text = str(line, "iso-8859-1")
            if text[0] in " \t":
                if name is not None:
                    value += text
                    headers[name] = value.rstrip("\r\n")
                continue
            name = None
            if text.startswith("From "):
                continue
            field = _FIELD.match(text)
            if field is None:
                ended = True
            elif field.end() > 1:
                name = text[: field.end() - 1].lower()
                value = text[field.end():].lstrip(" \t")
                headers[name] = value.rstrip("\r\n")

    def _dispatch(
        self, method: str, target: str, version: str, headers: Dict[str, str]
    ) -> None:
        """Read the body, run the app under a worker slot, answer, log."""
        started = time.perf_counter()
        length = int(headers.get("content-length") or 0)
        body = self.rfile.read(length) if length else b""
        # the worker budget bounds concurrent *request processing*,
        # not connections: an idle keep-alive client holds no slot
        with self.server._slots:
            response = self.server.app.handle(method, target, headers, body)
        fields = list(response.headers.items())
        if response.status != 304:
            fields.append(("Content-Type", response.content_type))
        fields.append(("Content-Length", len(response.body)))
        reason = _RESPONSES.get(response.status, ("",))[0]
        self._send(version, response.status, reason, fields, response.body)
        self._log(
            method=method,
            path=target,
            status=response.status,
            duration_ms=round((time.perf_counter() - started) * 1000.0, 3),
            request_id=response.headers.get("X-Request-Id", ""),
        )

    def _error(
        self,
        version: str,
        code: int,
        message: Optional[str] = None,
        explain: Optional[str] = None,
        method: str = "",
    ) -> None:
        """``http.server``'s error answer; the connection then closes."""
        short, long = _RESPONSES[code]
        message = short if message is None else message
        self._log(message="code %d, message %s" % (code, message))
        page = BaseHTTPRequestHandler.error_message_format % {
            "code": code,
            "message": html.escape(message, quote=False),
            "explain": html.escape(
                long if explain is None else explain, quote=False
            ),
        }
        page = page.encode("UTF-8", "replace")
        fields = [
            ("Connection", "close"),
            ("Content-Type", BaseHTTPRequestHandler.error_content_type),
            ("Content-Length", len(page)),
        ]
        # a HEAD answer announces the page's length but carries none
        body = b"" if method == "HEAD" else page
        self._send(version, code, message, fields, body)

    def _send(
        self, version: str, status: int, reason: str, fields, body: bytes
    ) -> None:
        """Status line, ``Server``, ``Date``, ``fields`` and ``body`` in
        one ``sendall``; an HTTP/0.9 request gets the body alone."""
        if version == "HTTP/0.9":
            if body:
                self.connection.sendall(body)
            return
        head = [
            f"HTTP/1.1 {status} {reason}\r\n",
            _SERVER,
            f"Date: {formatdate(usegmt=True)}\r\n",
        ]
        head.extend(f"{name}: {value}\r\n" for name, value in fields)
        head.append("\r\n")
        self.connection.sendall("".join(head).encode("latin-1") + body)

    def _log(self, **fields) -> None:
        """One JSON object per line, or nothing when quiet."""
        stream = self.server.access_log
        if stream is None:
            return
        line = {
            "ts": datetime.now(timezone.utc)
            .astimezone()
            .isoformat(timespec="milliseconds"),
            **fields,
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

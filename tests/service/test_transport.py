"""Byte-level conformance of the HTTP transport, over raw sockets.

``tests/data/transport/golden.json`` holds the answer the service gave
to each request in :data:`CASES` when it still ran on
``http.server.BaseHTTPRequestHandler`` under Python 3.11: status
lines, header order, error pages, ``100 Continue`` and keep-alive or
close.  The transport must reproduce every one byte for byte.  The
``Date`` and ``X-Request-Id`` values and the interpreter version in
``Server`` are masked on both sides, because they change from run to
run.  Error pages come from the interpreter's own
``BaseHTTPRequestHandler.error_message_format``; where that template
differs from the recorded one (Python 3.10), pages and their lengths
are compared by code, message and explanation instead.

The cases run in order against one server, so the first ranking read
is a cache miss and the second a hit.
"""

from __future__ import annotations

import io
import json
import re
import socket
import time
from http.server import BaseHTTPRequestHandler
from pathlib import Path

import pytest

from repro.casestudy.problem import multimedia_problem
from repro.core import workspace
from repro.service.server import ServiceServer

from ..conftest import make_small_problem

GOLDEN = (
    Path(__file__).resolve().parents[1] / "data" / "transport" / "golden.json"
)
TOKEN = "s3cret"
AUTH = f"Authorization: Bearer {TOKEN}\r\n"
RANKING = "/v1/workspaces/ws-00/ranking"
#: the strong validator of ``RANKING`` (a pure function of the content)
ETAG = '"b9f77337733347e0e200d3c5e7af96d6"'


def _get(target: str, version: str = "HTTP/1.1", extra: str = AUTH) -> bytes:
    return f"GET {target} {version}\r\nHost: t\r\n{extra}\r\n".encode()


def _evaluate_body() -> bytes:
    """A workspace document larger than 1 KiB (curl sends ``Expect``)."""
    doc = workspace.to_dict(make_small_problem(name="adhoc"))
    body = json.dumps(doc, indent=2).encode()
    assert len(body) > 1024
    return body


def _post(body: bytes, extra: str = "") -> bytes:
    head = (
        f"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\n{AUTH}"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    )
    return head.encode("latin-1")


def _cases():
    """``(name, request bytes, body sent after 100 Continue or None)``."""
    body = _evaluate_body()
    many = "".join(f"X-H{i}: v\r\n" for i in range(101))
    http10 = _get(RANKING, "HTTP/1.0")
    keep_alive = _get(RANKING, "HTTP/1.0", AUTH + "Connection: keep-alive\r\n")
    cases = [
        ("ranking-miss", _get(RANKING)),
        ("ranking-hit", _get(RANKING)),
        ("not-modified", _get(RANKING, extra=f"{AUTH}If-None-Match: {ETAG}\r\n")),
        (
            "gzip",
            _get(
                "/v1/registries/default/workspaces/case/rankintervals",
                extra=AUTH + "Accept-Encoding: gzip\r\n",
            ),
        ),
        ("unauthorized", _get(RANKING, extra="")),
        ("forbidden", _get(RANKING, extra="Authorization: Bearer nope\r\n")),
        ("not-found", _get("/v1/workspaces/ghost/ranking")),
        ("method-not-allowed", b"DELETE /healthz HTTP/1.1\r\nHost: t\r\n\r\n"),
        ("evaluate", _post(body) + body),
        ("evaluate-expect-continue", _post(body, "Expect: 100-continue\r\n")),
        (
            "pipelined",
            _get(RANKING) + _get("/v1/registries/default/workspaces/ws-01/ranking"),
        ),
        ("http10-closes", http10 * 2),
        ("http10-keep-alive", keep_alive * 2),
        (
            "connection-close",
            _get(RANKING, extra=AUTH + "Connection: close\r\n") + _get(RANKING),
        ),
        ("http09-get", f"GET {RANKING}\r\n{AUTH}\r\n".encode()),
        ("blank-line", b"\r\n" + _get(RANKING)),
        ("malformed-request-line", b"garbage\r\n\r\n"),
        ("bad-version", b"GET / HTTP/one\r\n\r\n"),
        ("http2-version", b"GET / HTTP/2.0\r\n\r\n"),
        ("too-many-words", b"GET / x HTTP/1.1\r\n\r\n"),
        ("unsupported-method", b"BREW /pot HTTP/1.1\r\nHost: t\r\n\r\n"),
        ("head", b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"),
        # one byte over the 65536-byte limit and nothing after it, so
        # nothing is left unread when the server closes (unread bytes
        # would make it reset the connection)
        ("request-line-too-long", b"GET /" + b"a" * 65532),
        ("too-many-headers", _get("/healthz", extra=many)),
        ("header-line-too-long", b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 65534),
    ]
    return [
        (name, request, body if name == "evaluate-expect-continue" else None)
        for name, request in cases
    ]


CASES = _cases()

_MASKS = [
    (re.compile(rb"^(Date: ).*$", re.M), rb"\1<masked>\r"),
    (re.compile(rb"^(X-Request-Id: ).*$", re.M), rb"\1<masked>\r"),
    # the interpreter version, in the Server header
    (
        re.compile(rb"^(Server: repro-registry/1 Python/)\S+", re.M),
        rb"\1<masked>",
    ),
]


def mask(raw: bytes) -> bytes:
    """``raw`` with the run-dependent header values replaced."""
    for pattern, replacement in _MASKS:
        raw = pattern.sub(replacement, raw)
    return raw


def _read_until(sock: socket.socket, marker: bytes) -> bytes:
    data = b""
    while marker not in data:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


def exchange(address, request: bytes, continued=None) -> bytes:
    """Send ``request``, half-close and read everything the server sends.

    With ``continued``, the head goes first; the body follows once the
    server's ``100 Continue`` arrives, as curl sends a large POST.
    """
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request)
        data = b""
        if continued is not None:
            data = _read_until(sock, b"\r\n\r\n")
            sock.sendall(continued)
        sock.shutdown(socket.SHUT_WR)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk


def build_registry(root: Path) -> None:
    for i in range(2):
        name = f"ws-{i:02d}"
        problem = make_small_problem(missing_cell=(i % 2 == 0), name=name)
        workspace.save(problem, root / f"{name}.json")
    # 23 alternatives: a body long enough to be gzipped
    workspace.save(multimedia_problem(), root / "case.json")


def record(address) -> dict:
    """Every case's masked answer, as stored in the golden file."""
    return {
        name: mask(exchange(address, request, continued)).decode("latin-1")
        for name, request, continued in CASES
    }


@pytest.fixture()
def server(tmp_path):
    build_registry(tmp_path)
    with ServiceServer(
        tmp_path, port=0, workers=2, access_log=None, auth_token=TOKEN
    ) as srv:
        yield srv


def _page_form(answer: str, template: str) -> str:
    """``answer`` with each error page rendered from ``template`` named
    by its fields, and the length of every HTML answer masked."""
    pattern = re.escape(template)
    for field, group in (
        ("%(code)d", r"(?P<code>\d+)"),
        ("%(code)s", r"(?P=code)"),
        ("%(message)s", r"(?P<message>.*?)"),
        ("%(explain)s", r"(?P<explain>.*?)"),
    ):
        pattern = pattern.replace(re.escape(field), group)
    answer = re.sub(
        pattern,
        lambda m: "<error page {code}: {message}: {explain}>".format(**m.groupdict()),
        answer,
        flags=re.S,
    )
    return re.sub(
        r"(Content-Type: text/html;charset=utf-8\r\nContent-Length: )\d+",
        r"\1<masked>",
        answer,
    )


def test_every_recorded_answer_is_reproduced_byte_for_byte(server):
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["answers"]
    assert list(recorded) == [name for name, _, _ in CASES]
    answers = record(server.address)
    template = BaseHTTPRequestHandler.error_message_format
    for name, expected in recorded.items():
        if template != golden["error_message_format"]:
            expected = _page_form(expected, golden["error_message_format"])
            answers[name] = _page_form(answers[name], template)
        assert answers[name] == expected, name


def test_a_large_post_expecting_continue_is_answered_at_once(server):
    """curl waits 1 s for ``100 Continue`` before it sends the body."""
    body = _evaluate_body()
    with socket.create_connection(server.address, timeout=10) as sock:
        started = time.perf_counter()
        sock.sendall(_post(body, "Expect: 100-continue\r\n"))
        interim = _read_until(sock, b"\r\n\r\n")
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        answer = _read_until(sock, b"\r\n\r\n")
        elapsed = time.perf_counter() - started
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
    assert elapsed < 0.1


def test_malformed_input_is_logged_as_a_message_line(tmp_path):
    build_registry(tmp_path)
    log = io.StringIO()
    with ServiceServer(tmp_path, port=0, access_log=log) as srv:
        exchange(srv.address, b"garbage\r\n\r\n")
        exchange(srv.address, b"BREW /pot HTTP/1.1\r\n\r\n")
    lines = log.getvalue().splitlines()
    messages = [json.loads(line)["message"] for line in lines]
    assert messages == [
        "code 400, message Bad request syntax ('garbage')",
        "code 501, message Unsupported method ('BREW')",
    ]

"""Tests for the threaded HTTP layer (real sockets, real threads)."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import workspace
from repro.service.app import ServiceApp
from repro.service.server import ServiceServer

from ..conftest import make_small_problem


def write_registry(tmp_path, n=4):
    paths = []
    for i in range(n):
        problem = make_small_problem(
            missing_cell=(i % 2 == 0), name=f"ws-{i:02d}"
        )
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(problem, path)
        paths.append(path)
    return paths


@pytest.fixture()
def server(tmp_path):
    write_registry(tmp_path)
    with ServiceServer(tmp_path, port=0, workers=4, access_log=None) as srv:
        yield srv


def fetch(server, target, headers=None, data=None, method=None):
    request = urllib.request.Request(
        server.url + target, headers=headers or {}, data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestHTTPRoundTrip:
    def test_healthz(self, server):
        status, headers, raw = fetch(server, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert json.loads(raw)["status"] == "ok"

    def test_ranking_bytes_match_direct_app_dispatch(self, server, tmp_path):
        status, _, raw = fetch(server, "/v1/workspaces/ws-00/ranking")
        assert status == 200
        with ServiceApp(tmp_path) as app:
            direct = app.handle("GET", "/v1/workspaces/ws-00/ranking")
        assert raw == direct.body

    def test_etag_304_over_http(self, server):
        _, headers, _ = fetch(server, "/v1/workspaces/ws-01/ranking")
        status, revalidated, raw = fetch(
            server,
            "/v1/workspaces/ws-01/ranking",
            headers={"If-None-Match": headers["ETag"]},
        )
        assert status == 304
        assert raw == b""
        assert revalidated["ETag"] == headers["ETag"]

    def test_post_evaluate(self, server):
        doc = workspace.to_dict(make_small_problem(name="adhoc"))
        status, _, raw = fetch(
            server,
            "/v1/evaluate",
            headers={"Content-Type": "application/json"},
            data=json.dumps(doc).encode(),
            method="POST",
        )
        assert status == 200
        assert json.loads(raw)["problem"] == "adhoc"

    def test_error_statuses_over_http(self, server):
        assert fetch(server, "/v1/workspaces/ghost/ranking")[0] == 404
        assert fetch(server, "/nope")[0] == 404
        assert fetch(server, "/healthz", data=b"{}", method="POST")[0] == 405


class TestConcurrency:
    def test_concurrent_requests_serve_identical_bytes(self, server):
        # warm every target once so the smoke exercises the hot path too
        reference = {
            ws_id: fetch(server, f"/v1/workspaces/{ws_id}/ranking")[2]
            for ws_id in ("ws-00", "ws-01", "ws-02", "ws-03")
        }
        errors = []

        def client(worker: int) -> None:
            try:
                for i in range(20):
                    ws_id = f"ws-{(worker + i) % 4:02d}"
                    status, _, raw = fetch(
                        server, f"/v1/workspaces/{ws_id}/ranking"
                    )
                    assert status == 200
                    assert raw == reference[ws_id]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_edit_between_warm_reads_serves_the_new_body(self, tmp_path):
        """The index's mirror is shared by the request threads: a file
        edited between two warm reads (same size, mtime restored, so
        only ctime moves) must come back with its new content."""
        import os

        paths = write_registry(tmp_path, n=2)
        target = "/v1/workspaces/ws-01/ranking"
        with ServiceServer(
            tmp_path, port=0, workers=4, access_log=None
        ) as srv:
            reads = [fetch(srv, target) for _ in range(3)]
            assert {status for status, _, _ in reads} == {200}
            assert reads[-1][1]["X-Cache"] == "hit"
            before = reads[-1][2]
            st = os.stat(paths[1])
            text = paths[1].read_text()
            paths[1].write_text(text.replace("ws-01", "xs-01"))
            os.utime(paths[1], ns=(st.st_atime_ns, st.st_mtime_ns))
            assert os.stat(paths[1]).st_size == st.st_size
            results = []

            def client() -> None:
                results.append(fetch(srv, target))

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert [status for status, _, _ in results] == [200] * 4
        bodies = {raw for _, _, raw in results}
        assert len(bodies) == 1
        (after,) = bodies
        assert after != before
        assert json.loads(after)["results"][0]["name"] == "xs-01"
        with ServiceApp(tmp_path) as app:
            assert app.handle("GET", target).body == after

    def test_concurrent_cold_misses_evaluate_once(self, tmp_path):
        write_registry(tmp_path, n=1)
        with ServiceServer(
            tmp_path, port=0, workers=4, access_log=None
        ) as srv:
            results = []

            def client() -> None:
                results.append(fetch(srv, "/v1/workspaces/ws-00/ranking"))

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert [status for status, _, _ in results] == [200] * 6
            assert len({raw for _, _, raw in results}) == 1
            # the write lock collapsed the stampede into one evaluation
            assert srv.app.index.status()["n_result_rows"] == 1


    def test_idle_keepalive_clients_do_not_starve_workers(self, tmp_path):
        import socket

        write_registry(tmp_path, n=1)
        with ServiceServer(
            tmp_path, port=0, workers=2, access_log=None
        ) as srv:
            idlers = []
            try:
                # two clients fill the old per-connection budget, then
                # park: the worker slots are per-request, so a third
                # client must still be served
                for _ in range(2):
                    sock = socket.create_connection(srv.address, timeout=10)
                    sock.sendall(
                        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    )
                    assert b"200" in sock.recv(65536)
                    idlers.append(sock)
                assert fetch(srv, "/healthz")[0] == 200
            finally:
                for sock in idlers:
                    sock.close()


class TestLifecycle:
    def test_stop_closes_the_socket_and_the_index(self, tmp_path):
        write_registry(tmp_path, n=1)
        server = ServiceServer(tmp_path, port=0, access_log=None).start()
        url = server.url
        assert fetch(server, "/healthz")[0] == 200
        server.stop()
        with pytest.raises(OSError):
            urllib.request.urlopen(url + "/healthz", timeout=2)

    def test_double_start_is_rejected(self, tmp_path):
        write_registry(tmp_path, n=1)
        server = ServiceServer(tmp_path, port=0, access_log=None).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_access_log_lines(self, tmp_path):
        import io
        import json

        write_registry(tmp_path, n=1)
        log = io.StringIO()
        with ServiceServer(tmp_path, port=0, access_log=log) as srv:
            fetch(srv, "/healthz")
        lines = [ln for ln in log.getvalue().splitlines() if ln]
        assert lines, "expected at least one access-log line"
        entry = json.loads(lines[0])
        assert entry["method"] == "GET"
        assert entry["path"] == "/healthz"
        assert entry["status"] == 200
        assert entry["duration_ms"] >= 0
        assert entry["request_id"]
        # ISO-8601 timestamp parses back
        from datetime import datetime

        datetime.fromisoformat(entry["ts"])

    def test_rejects_non_positive_workers(self, tmp_path):
        write_registry(tmp_path, n=1)
        with pytest.raises(ValueError):
            ServiceServer(tmp_path, port=0, workers=0, access_log=None)


class TestServeCLI:
    def test_serve_requires_registry_directory(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="not a registry directory"):
            main(["serve", "--registry", str(tmp_path / "nope")])

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--registry", "r"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8321, 8)
        assert args.index_path is None and args.quiet is False

    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        write_registry(tmp_path, n=1)
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--registry", str(tmp_path), "--port", "0", "--quiet",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
        try:
            banner = process.stdout.readline()
            assert "serving registry" in banner
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            assert "shut down" in process.stdout.read()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()

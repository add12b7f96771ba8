"""The service's one probe protocol: examine, then one runner call.

A workspace read calls ``RegistryIndex.examine``; a row that is fresh
and needs no re-stamp is served as stored, and anything else goes
through one ``ShardedRunner`` run, which derives the identity once,
delta-patches the stale artifact and records fingerprint and results
in one ``record_run``.
"""

import json
import os
import types

import pytest

import repro.core.index as index_module
from repro.core import workspace
from repro.core.index import RECORDING_WINDOW_NS, RegistryIndex
from repro.core.runtime import SkippedWorkspace
from repro.service.app import ServiceApp

from .test_app import get, write_members, write_registry

VERBS = (
    "ranking",
    "montecarlo?simulations=50&seed=3",
    "dominance",
    "rankintervals",
)


@pytest.fixture()
def calls(monkeypatch):
    """Counts of the parses, delta patches, writes and byte checks."""
    seen = {}

    def count(owner, name, key, keep=lambda result, *args, **kwargs: True):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            result = real(*args, **kwargs)
            if keep(result, *args, **kwargs):
                seen[key] = seen.get(key, 0) + 1
            return result

        monkeypatch.setattr(owner, name, counted)

    count(workspace, "load", "parse")
    count(
        workspace,
        "load_compiled_delta",
        "delta",
        lambda result, *args, **kwargs: result is not None,
    )
    count(workspace, "_file_sha256", "byte_check")
    count(RegistryIndex, "record_run", "record_run")
    count(
        RegistryIndex,
        "record_run",
        "fingerprints_only",
        lambda result, index, records, results=None, config_hash="": (
            not results
        ),
    )
    return seen


class _Later:
    """The index's clock, moved past every row's recording window."""

    @staticmethod
    def time_ns():
        import time

        return time.time_ns() + 10 * RECORDING_WINDOW_NS


def _weight_edit(path):
    """Narrow one local weight interval: a delta-compilable edit."""
    data = json.loads(path.read_text())
    data["weights"]["cost"] = [0.35, 0.5]
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _rename_alternative(path):
    """Rename one alternative: a structural edit no delta can patch."""
    data = json.loads(path.read_text())
    data["alternatives"][0]["name"] += "~renamed"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


def _cold_bodies(tmp_path, edit):
    """The four verb bodies of ``ws-01`` from a service that never saw
    it before ``edit``."""
    cold = tmp_path / "cold"
    cold.mkdir()
    edit(write_registry(cold)[1])
    with ServiceApp(cold) as app:
        return [get(app, f"/v1/workspaces/ws-01/{v}").body for v in VERBS]


def _cached_bodies(app, ws_id):
    """``(etag, body)`` of every cache entry rendered for ``ws_id``."""
    entries = [
        (entry.etag, json.loads(entry.body))
        for entry in app.cache._entries.values()
    ]
    return [(etag, doc) for etag, doc in entries if doc["workspace"] == ws_id]


class TestEditToFresh:
    def test_one_parse_one_delta_no_probe_writes(
        self, tmp_path, calls
    ):
        registry = write_registry(tmp_path)
        with ServiceApp(tmp_path) as app:
            primed = [get(app, f"/v1/workspaces/ws-01/{v}") for v in VERBS]
            assert [r.status for r in primed] == [200] * 4
            old_hash = json.loads(primed[0].body)["content_hash"]
            cached = _cached_bodies(app, "ws-01")
            assert {doc["content_hash"] for _, doc in cached} == {old_hash}
            assert {etag for etag, _ in cached} == {
                r.headers["ETag"] for r in primed
            }

            _weight_edit(registry[1])
            calls.clear()
            fresh = [get(app, f"/v1/workspaces/ws-01/{v}") for v in VERBS]
            counted = dict(calls)

            assert [r.status for r in fresh] == [200] * 4
            new_hash = workspace.content_hash(workspace.load(registry[1]))
            assert {
                json.loads(r.body)["content_hash"] for r in fresh
            } == {new_hash}
            assert counted.get("parse") == 1
            assert counted.get("delta") == 1
            assert counted.get("fingerprints_only", 0) == 0
            cached = _cached_bodies(app, "ws-01")
            assert {doc["content_hash"] for _, doc in cached} == {new_hash}
            assert sorted(etag for etag, _ in cached) == sorted(
                r.headers["ETag"] for r in fresh
            )

    def test_structural_edit_reads_parse_once(self, tmp_path, calls):
        """A structural edit cannot be delta-patched: the runner lowers
        the probe's parse and writes the artifact the screening reads
        then mmap, so the four reads parse the file once."""
        (tmp_path / "warm").mkdir()
        registry = write_registry(tmp_path / "warm")
        with ServiceApp(tmp_path / "warm") as app:
            for verb in VERBS:
                assert get(app, f"/v1/workspaces/ws-01/{verb}").status == 200
            _rename_alternative(registry[1])
            calls.clear()
            warm = [get(app, f"/v1/workspaces/ws-01/{v}") for v in VERBS]
            counted = dict(calls)
        assert [r.status for r in warm] == [200] * 4
        assert counted.get("parse") == 1
        assert counted.get("delta", 0) == 0
        assert [r.body for r in warm] == _cold_bodies(
            tmp_path, _rename_alternative
        )

    def test_listing_keeps_the_parse_it_makes(self, tmp_path, calls):
        """A listing that re-derives an edited row writes its artifact,
        so the reads that follow parse nothing more."""
        (tmp_path / "warm").mkdir()
        registry = write_registry(tmp_path / "warm")
        with ServiceApp(tmp_path / "warm") as app:
            for verb in VERBS:
                assert get(app, f"/v1/workspaces/ws-01/{verb}").status == 200
            _weight_edit(registry[1])
            calls.clear()
            assert get(app, "/v1/registry").status == 200
            listing_parses = calls.get("parse", 0)
            warm = [get(app, f"/v1/workspaces/ws-01/{v}") for v in VERBS]
            counted = dict(calls)
        assert listing_parses == len(registry)
        assert counted.get("parse") == listing_parses
        assert [r.status for r in warm] == [200] * 4
        assert [r.body for r in warm] == _cold_bodies(tmp_path, _weight_edit)

    def test_churn_keeps_one_entry_per_read(self, tmp_path):
        """Every edit replaces the workspace's four entries in place."""
        registry = write_registry(tmp_path)
        with ServiceApp(tmp_path) as app:
            for k in range(20):
                data = json.loads(registry[1].read_text())
                data["weights"]["cost"] = [0.3 + 0.005 * (k + 1), 0.5]
                registry[1].write_text(json.dumps(data))
                fresh = [
                    get(app, f"/v1/workspaces/ws-01/{v}") for v in VERBS
                ]
                assert [r.status for r in fresh] == [200] * 4
                cached = _cached_bodies(app, "ws-01")
                assert len(cached) == 4
                assert sorted(etag for etag, _ in cached) == sorted(
                    r.headers["ETag"] for r in fresh
                )
            assert len(app.cache) == 4

    def test_group_read_of_an_edit_parses_once(self, tmp_path, calls):
        """The roster rules delta out; the runner evaluates the probe's
        own parse instead of parsing the file again."""
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        registry = write_registry(tmp_path / "a")
        members = write_members(tmp_path)
        with ServiceApp(tmp_path / "a", members_path=members) as app:
            assert get(app, "/v1/workspaces/ws-01/group").status == 200
            _weight_edit(registry[1])
            calls.clear()
            warm = get(app, "/v1/workspaces/ws-01/group")
            assert warm.status == 200
            assert calls.get("parse") == 1
        cold_registry = write_registry(tmp_path / "b")
        _weight_edit(cold_registry[1])
        with ServiceApp(tmp_path / "b", members_path=members) as app:
            cold = get(app, "/v1/workspaces/ws-01/group")
        assert warm.body == cold.body

    def test_bodies_match_a_cold_service(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        registry = write_registry(tmp_path / "a")
        with ServiceApp(tmp_path / "a") as app:
            for verb in VERBS:
                get(app, f"/v1/workspaces/ws-01/{verb}")
            _weight_edit(registry[1])
            warm = [get(app, f"/v1/workspaces/ws-01/{v}").body for v in VERBS]
        cold_registry = write_registry(tmp_path / "b")
        _weight_edit(cold_registry[1])
        with ServiceApp(tmp_path / "b") as app:
            cold = [get(app, f"/v1/workspaces/ws-01/{v}").body for v in VERBS]
        assert warm == cold


class TestRestamp:
    """Rows recorded inside the recording window are re-stamped once."""

    def test_ranking_reads_restamp_once_then_skip_byte_checks(
        self, tmp_path, calls, monkeypatch
    ):
        registry = write_registry(tmp_path)
        ids = [path.stem for path in registry]
        with ServiceApp(tmp_path) as app:
            primed = {
                ws: get(app, f"/v1/workspaces/{ws}/ranking").body
                for ws in ids
            }
            monkeypatch.setattr(index_module, "time", _Later)
            calls.clear()
            for _ in range(3):
                for ws in ids:
                    response = get(app, f"/v1/workspaces/{ws}/ranking")
                    assert response.body == primed[ws]
            assert calls.get("record_run", 0) <= len(ids)
            assert calls.get("parse", 0) == 0
            calls.clear()
            for _ in range(3):
                for ws in ids:
                    response = get(app, f"/v1/workspaces/{ws}/ranking")
                    assert response.body == primed[ws]
            assert calls == {}

    def test_listing_restamps_fresh_rows(
        self, tmp_path, calls, monkeypatch
    ):
        registry = write_registry(tmp_path)
        with ServiceApp(tmp_path) as app:
            first = json.loads(get(app, "/v1/registry").body)
            monkeypatch.setattr(index_module, "time", _Later)
            calls.clear()
            second = json.loads(get(app, "/v1/registry").body)
            assert calls.get("fingerprints_only") == 1
            calls.clear()
            third = json.loads(get(app, "/v1/registry").body)
            assert calls.get("byte_check", 0) == 0
            assert calls.get("fingerprints_only", 0) == 0
        assert first["workspaces"] == second["workspaces"]
        assert second["workspaces"] == third["workspaces"]
        assert len(first["workspaces"]) == len(registry)

VERSIONS = "/v1/registries/default/workspaces/ws-01/versions"


def _touch(path):
    """New mtime, same bytes: the next examine reports ``touched``."""
    st = os.stat(path)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


class _SkippingRunner:
    """A runner that skips every file, as it does content it cannot compile."""

    def __init__(self, *args, **kwargs):
        pass

    def run(self, paths, index=None):
        skipped = SkippedWorkspace(
            index=0, path=paths[0], error="ValueError: cannot compile"
        )
        return types.SimpleNamespace(skipped=(skipped,), results=())


class TestFailedRecording:
    """A run that cannot record does not fail a read the index answers."""

    def test_open_breaker_serves_due_and_touched_rows(
        self, tmp_path, monkeypatch
    ):
        registry = write_registry(tmp_path)
        with ServiceApp(tmp_path) as app:
            primed = {
                (ws, verb): get(app, f"/v1/workspaces/{ws}/{verb}").body
                for ws in ("ws-00", "ws-01")
                for verb in VERBS
            }
            for _ in range(app.breaker.snapshot()["threshold"]):
                app.breaker.record_failure()
            assert app.breaker.state == "open"
            app.cache.clear()
            monkeypatch.setattr(index_module, "time", _Later)
            _touch(registry[1])
            for (ws, verb), expected in primed.items():
                response = get(app, f"/v1/workspaces/{ws}/{verb}")
                assert response.status == 200, (ws, verb)
                assert response.body == expected
            versions = get(app, VERSIONS)
            assert versions.status == 200
            assert app.breaker.state == "open"
            # an evaluation the index cannot answer is still refused
            refused = get(
                app, "/v1/workspaces/ws-00/montecarlo?simulations=7"
            )
            assert refused.status == 503
            assert refused.headers["Retry-After"]

    def test_skipped_content_keeps_metadata_reads(
        self, tmp_path, monkeypatch
    ):
        registry = write_registry(tmp_path)
        with ServiceApp(tmp_path) as app:
            old_hash = json.loads(
                get(app, "/v1/workspaces/ws-01/ranking").body
            )["content_hash"]
            monkeypatch.setattr(
                "repro.service.app.ShardedRunner", _SkippingRunner
            )
            _weight_edit(registry[1])
            new_hash = workspace.content_hash(workspace.load(registry[1]))

            versions = get(app, VERSIONS)
            assert versions.status == 200
            history = json.loads(versions.body)
            assert history["content_hash"] == new_hash
            assert [
                v["content_hash"] for v in history["versions"] if v["current"]
            ] == [new_hash]
            assert old_hash in {v["content_hash"] for v in history["versions"]}
            tagged = app.handle(
                "POST",
                VERSIONS,
                body=json.dumps(
                    {"content_hash": new_hash, "tag": "draft"}
                ).encode(),
            )
            assert tagged.status == 200

            ranking = get(app, "/v1/workspaces/ws-01/ranking")
            assert ranking.status == 409
            assert "cannot be evaluated" in json.loads(ranking.body)[
                "error"
            ]["message"]
            assert app.breaker.state == "closed"

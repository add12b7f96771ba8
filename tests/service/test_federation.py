"""Tests for the federation layer: multi-registry serving, isolation,
legacy aliases, versioned reads, registry sync and cache warming."""

import json

import pytest

from repro.core import workspace
from repro.core.index import RegistryIndex
from repro.core.runtime import ShardedRunner
from repro.service.app import ServiceApp
from repro.service.federation import Federation, pull_registry

from ..conftest import make_small_problem


def write_registry(root, names):
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in names:
        path = root / f"{name}.json"
        workspace.save(make_small_problem(name=name), path)
        paths.append(path)
    return paths


@pytest.fixture()
def two_registries(tmp_path):
    alpha = tmp_path / "alpha"
    beta = tmp_path / "beta"
    write_registry(alpha, ["a-0", "a-1"])
    write_registry(beta, ["b-0", "b-1"])
    return alpha, beta


@pytest.fixture()
def app(two_registries):
    alpha, beta = two_registries
    with ServiceApp(alpha, mounts={"beta": beta}) as service_app:
        yield service_app


def get(app, target, **headers):
    return app.handle("GET", target, headers)


def body(response):
    return json.loads(response.body)


class TestFederationTable:
    def test_first_mount_is_default(self, two_registries):
        alpha, beta = two_registries
        federation = Federation(lambda: object())
        federation.mount("alpha", alpha)
        federation.mount("beta", beta)
        assert federation.default_name == "alpha"
        assert federation.names() == ["alpha", "beta"]
        assert len(federation) == 2
        federation.close()

    def test_bad_names_and_dirs_rejected(self, tmp_path):
        federation = Federation(lambda: object())
        with pytest.raises(ValueError, match="invalid registry name"):
            federation.mount("Bad Name", tmp_path)
        with pytest.raises(ValueError, match="not a registry directory"):
            federation.mount("ok", tmp_path / "missing")

    def test_duplicate_mount_rejected(self, tmp_path):
        federation = Federation(lambda: object())
        federation.mount("dup", tmp_path)
        with pytest.raises(ValueError, match="already mounted"):
            federation.mount("dup", tmp_path)
        federation.close()

    def test_default_cannot_unmount(self, tmp_path):
        federation = Federation(lambda: object())
        federation.mount("only", tmp_path)
        with pytest.raises(ValueError):
            federation.unmount("only")
        with pytest.raises(KeyError):
            federation.unmount("ghost")
        federation.close()


class TestMultiRegistryServing:
    def test_routes_reach_each_registry(self, app):
        assert get(app, "/v1/registries/default/workspaces/a-0/ranking")\
            .status == 200
        assert get(app, "/v1/registries/beta/workspaces/b-0/ranking")\
            .status == 200
        # a workspace only exists in its own registry
        assert get(app, "/v1/registries/beta/workspaces/a-0/ranking")\
            .status == 404

    def test_registry_listing_endpoint(self, app, two_registries):
        alpha, beta = two_registries
        payload = body(get(app, "/v1/registries"))
        assert payload["default"] == "default"
        assert payload["n_registries"] == 2
        names = {r["name"]: r for r in payload["registries"]}
        assert names["default"]["default"] is True
        assert names["beta"]["root"] == str(beta.resolve())

    def test_mount_and_unmount_at_runtime(self, app, tmp_path):
        gamma = tmp_path / "gamma"
        write_registry(gamma, ["g-0"])
        created = app.handle(
            "POST",
            "/v1/registries",
            body=json.dumps({"name": "gamma", "root": str(gamma)}).encode(),
        )
        assert created.status == 201
        assert get(app, "/v1/registries/gamma/workspaces/g-0/ranking")\
            .status == 200
        gone = app.handle("DELETE", "/v1/registries/gamma")
        assert gone.status == 200
        assert get(app, "/v1/registries/gamma/workspaces/g-0/ranking")\
            .status == 404

    def test_unmounting_default_is_409(self, app):
        response = app.handle("DELETE", "/v1/registries/default")
        assert response.status == 409
        assert body(response)["error"]["code"] == "conflict"

    def test_healthz_reports_every_registry(self, app):
        payload = body(get(app, "/healthz"))
        assert payload["default_registry"] == "default"
        assert set(payload["registries"]) == {"default", "beta"}
        for block in payload["registries"].values():
            assert block["status"] == "ok"


class TestCacheIsolation:
    def test_editing_one_registry_keeps_the_other_warm(
        self, app, two_registries
    ):
        alpha, beta = two_registries
        assert get(app, "/v1/registries/default/workspaces/a-0/ranking")\
            .headers["X-Cache"] == "miss"
        assert get(app, "/v1/registries/beta/workspaces/b-0/ranking")\
            .headers["X-Cache"] == "miss"
        # edit registry beta's workspace: its read must re-render...
        workspace.save(
            make_small_problem(missing_cell=True, name="b-0"),
            beta / "b-0.json",
        )
        edited = get(app, "/v1/registries/beta/workspaces/b-0/ranking")
        assert edited.headers["X-Cache"] == "miss"
        # ...while registry alpha's stay hot
        assert get(app, "/v1/registries/default/workspaces/a-0/ranking")\
            .headers["X-Cache"] == "hit"

    def test_per_registry_breakers_are_distinct(self, app):
        default_state = app.federation.get("default")
        beta_state = app.federation.get("beta")
        assert default_state.breaker is not beta_state.breaker
        for _ in range(default_state.breaker.snapshot()["threshold"]):
            default_state.breaker.record_failure()
        assert default_state.breaker.state == "open"
        assert beta_state.breaker.state == "closed"
        # beta still evaluates fine
        assert get(app, "/v1/registries/beta/workspaces/b-1/ranking")\
            .status == 200


class TestLegacyAliases:
    def test_bodies_are_byte_identical(self, app):
        pairs = [
            ("/v1/workspaces/a-0/ranking",
             "/v1/registries/default/workspaces/a-0/ranking"),
            ("/v1/workspaces/a-0/dominance",
             "/v1/registries/default/workspaces/a-0/dominance"),
            ("/v1/workspaces/a-0/rankintervals",
             "/v1/registries/default/workspaces/a-0/rankintervals"),
            ("/v1/registry",
             "/v1/registries/default/registry"),
        ]
        for legacy_path, new_path in pairs:
            legacy = get(app, legacy_path)
            new = get(app, new_path)
            assert legacy.status == new.status == 200
            assert legacy.body == new.body
            assert legacy.headers.get("ETag") == new.headers.get("ETag")

    def test_legacy_routes_send_deprecation_headers(self, app):
        legacy = get(app, "/v1/workspaces/a-0/ranking")
        assert legacy.headers["Deprecation"] == "true"
        assert "Sunset" in legacy.headers
        assert "successor-version" in legacy.headers["Link"]
        new = get(app, "/v1/registries/default/workspaces/a-0/ranking")
        assert "Deprecation" not in new.headers

    def test_legacy_evaluate_aliases_default(self, app):
        doc = workspace.to_dict(make_small_problem(name="adhoc"))
        legacy = app.handle(
            "POST", "/v1/evaluate", body=json.dumps(doc).encode()
        )
        new = app.handle(
            "POST",
            "/v1/registries/default/evaluate",
            body=json.dumps(doc).encode(),
        )
        assert legacy.status == new.status == 200
        assert legacy.body == new.body
        assert legacy.headers["Deprecation"] == "true"


class TestVersionedReads:
    def test_lineage_grows_with_edits_and_pins_read_old_results(self, app):
        first = body(get(app, "/v1/registries/default/workspaces/a-0/ranking"))
        old_hash = first["content_hash"]
        alpha = app.federation.get("default").root
        workspace.save(
            make_small_problem(missing_cell=True, name="a-0"),
            alpha / "a-0.json",
        )
        second = body(
            get(app, "/v1/registries/default/workspaces/a-0/ranking")
        )
        assert second["content_hash"] != old_hash
        versions = body(
            get(app, "/v1/registries/default/workspaces/a-0/versions")
        )
        hashes = {v["content_hash"] for v in versions["versions"]}
        assert {old_hash, second["content_hash"]} <= hashes
        current = [v for v in versions["versions"] if v["current"]]
        assert [v["content_hash"] for v in current] == [
            second["content_hash"]
        ]
        # the pinned read still serves the superseded version's floats
        pinned = body(
            get(
                app,
                "/v1/registries/default/workspaces/a-0/ranking?at="
                + old_hash,
            )
        )
        assert pinned == first

    def test_tagging_a_version(self, app):
        ranking = body(
            get(app, "/v1/registries/default/workspaces/a-1/ranking")
        )
        response = app.handle(
            "POST",
            "/v1/registries/default/workspaces/a-1/versions",
            body=json.dumps(
                {"content_hash": ranking["content_hash"], "tag": "v1"}
            ).encode(),
        )
        assert response.status == 200
        versions = body(
            get(app, "/v1/registries/default/workspaces/a-1/versions")
        )
        assert versions["versions"][-1]["tag"] == "v1"

    def test_tagging_unknown_hash_is_404(self, app):
        response = app.handle(
            "POST",
            "/v1/registries/default/workspaces/a-1/versions",
            body=json.dumps(
                {"content_hash": "ab" * 16, "tag": "ghost"}
            ).encode(),
        )
        assert response.status == 404
        assert body(response)["error"]["code"] == "version_not_found"


class TestRegistryPull:
    def test_pull_copies_workspaces_and_cached_results(self, tmp_path):
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        paths = write_registry(src, ["p-0", "p-1"])
        with RegistryIndex(src / ".repro-index.sqlite") as index:
            ShardedRunner(workers=1).run(
                [str(p) for p in paths], index=index
            )
        report = pull_registry(src, dst)
        assert report.copied == 2
        assert report.result_sets_copied == 2
        # the destination serves the source's cached floats without
        # re-evaluating: its index already has the result rows
        with RegistryIndex(dst / ".repro-index.sqlite") as index:
            assert index.status()["n_result_rows"] > 0
        with ServiceApp(src) as src_app, ServiceApp(dst) as dst_app:
            src_body = get(src_app, "/v1/workspaces/p-0/ranking").body
            dst_body = get(dst_app, "/v1/workspaces/p-0/ranking").body
        assert src_body == dst_body

    def test_pull_is_idempotent(self, tmp_path):
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        paths = write_registry(src, ["p-0", "p-1", "p-2"])
        with RegistryIndex(src / ".repro-index.sqlite") as index:
            ShardedRunner(workers=1).run(
                [str(p) for p in paths], index=index
            )
        first = pull_registry(src, dst)
        assert (first.copied, first.skipped) == (3, 0)
        second = pull_registry(src, dst)
        assert (second.copied, second.updated, second.skipped) == (0, 0, 3)
        assert second.result_sets_copied == 0
        assert second.result_sets_skipped == 3
        assert second.version_rows_added == 0

    def test_pull_updates_changed_workspaces(self, tmp_path):
        src = tmp_path / "src"
        dst = tmp_path / "dst"
        write_registry(src, ["p-0"])
        pull_registry(src, dst)
        workspace.save(
            make_small_problem(missing_cell=True, name="p-0"),
            src / "p-0.json",
        )
        report = pull_registry(src, dst)
        assert report.updated == 1
        assert (dst / "p-0.json").read_bytes() == (
            src / "p-0.json"
        ).read_bytes()

    def test_pull_rejects_same_directory(self, tmp_path):
        write_registry(tmp_path / "r", ["p-0"])
        with pytest.raises(ValueError, match="same"):
            pull_registry(tmp_path / "r", tmp_path / "r")

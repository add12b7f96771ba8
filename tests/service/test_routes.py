"""Tests for the declarative route layer: matching, errors, auth,
gzip + ETag interaction and the generated OpenAPI document."""

import gzip
import json

import pytest

from repro.core import workspace
from repro.service.app import ROUTES, ServiceApp
from repro.service.cache import accepts_gzip, gzip_bytes
from repro.service.routes import (
    ERROR_CODES,
    QueryParam,
    Route,
    Router,
    ServiceError,
    build_openapi,
    coerce_query,
)

from ..conftest import make_small_problem


@pytest.fixture()
def registry(tmp_path):
    paths = []
    for i in range(3):
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(make_small_problem(name=f"ws-{i:02d}"), path)
        paths.append(path)
    return paths


@pytest.fixture()
def app(tmp_path, registry):
    with ServiceApp(tmp_path) as service_app:
        yield service_app


def get(app, target, **headers):
    return app.handle("GET", target, headers)


def body(response):
    return json.loads(response.body)


class TestRouter:
    def test_single_segment_param(self):
        router = Router(
            [Route("GET", "/v1/things/{name}", "_h", "get_thing", "t")]
        )
        route, params = router.match("GET", "/v1/things/abc")
        assert route.name == "get_thing"
        assert params == {"name": "abc"}

    def test_greedy_param_spans_segments(self):
        router = Router(
            [Route("GET", "/v1/ws/{id...}/rank", "_h", "rank", "t")]
        )
        _, params = router.match("GET", "/v1/ws/a/b/c/rank")
        assert params == {"id": "a/b/c"}

    def test_greedy_needs_at_least_one_segment(self):
        router = Router(
            [Route("GET", "/v1/ws/{id...}/rank", "_h", "rank", "t")]
        )
        with pytest.raises(ServiceError) as excinfo:
            router.match("GET", "/v1/ws/rank")
        assert excinfo.value.status == 404

    def test_405_vs_404_discrimination(self):
        router = Router(
            [
                Route("GET", "/v1/x", "_h", "get_x", "t"),
                Route("POST", "/v1/x", "_h", "post_x", "t"),
                Route("GET", "/v1/y", "_h", "get_y", "t"),
            ]
        )
        with pytest.raises(ServiceError) as excinfo:
            router.match("DELETE", "/v1/x")
        assert excinfo.value.status == 405
        assert excinfo.value.headers["Allow"] == "GET, POST"
        with pytest.raises(ServiceError) as excinfo:
            router.match("GET", "/v1/zzz")
        assert excinfo.value.status == 404

    def test_route_names_must_be_unique(self):
        route = Route("GET", "/v1/x", "_h", "dup", "t")
        with pytest.raises(ValueError):
            Router([route, Route("GET", "/v1/y", "_h", "dup", "t")])

    def test_label_elides_greedy_marker(self):
        route = Route("GET", "/v1/ws/{id...}/rank", "_h", "rank", "t")
        assert route.label == "/v1/ws/{id}/rank"

    def test_lookup_by_last_segment_answers_as_a_full_scan(self):
        """The router tries only templates that can end like the path;
        every answer must be what trying all of ROUTES in order gives."""
        from repro.service.routes import _Compiled

        def scan(method, path):
            parts = [p for p in path.split("/") if p]
            allowed = []
            for route in ROUTES:
                params = _Compiled(route).match(parts)
                if params is not None:
                    if route.method == method:
                        return route.name, params
                    allowed.append(route.method)
            return (405, ", ".join(sorted(set(allowed)))) if allowed else 404

        def routed(method, path):
            try:
                route, params = Router(ROUTES).match(method, path)
            except ServiceError as exc:
                if exc.status == 405:
                    return 405, exc.headers["Allow"]
                return exc.status
            return route.name, params

        paths = ["/", "//", "/v1", "/nope", "/v1/ranking", "/v1/registries/"]
        for route in ROUTES:
            for fill in ("a", "a/b", "ranking", "versions/ranking", "registry"):
                paths.append(
                    route.template.replace("{id...}", fill)
                    .replace("{registry}", fill.split("/")[0])
                    .replace("{name}", fill)
                )
        for path in paths:
            for suffix in ("", "/", "/x", "/ranking"):
                for method in ("GET", "POST", "DELETE", "PUT"):
                    assert routed(method, path + suffix) == scan(
                        method, path + suffix
                    ), (method, path + suffix)


class TestCoercion:
    ROUTE = Route(
        "GET",
        "/v1/x",
        "_h",
        "x",
        "t",
        params=(
            QueryParam("n", kind="int", default=7, minimum=1),
            QueryParam("mode", choices=("a", "b"), default="a"),
        ),
    )

    def test_defaults_fill_absent_params(self):
        assert coerce_query(self.ROUTE, {}) == {"n": 7, "mode": "a"}

    def test_unknown_param_is_400(self):
        with pytest.raises(ServiceError) as excinfo:
            coerce_query(self.ROUTE, {"bogus": ["1"]})
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.message

    def test_int_coercion_and_minimum(self):
        assert coerce_query(self.ROUTE, {"n": ["3"]})["n"] == 3
        with pytest.raises(ServiceError):
            coerce_query(self.ROUTE, {"n": ["zero"]})
        with pytest.raises(ServiceError):
            coerce_query(self.ROUTE, {"n": ["0"]})

    def test_choices_enforced(self):
        with pytest.raises(ServiceError) as excinfo:
            coerce_query(self.ROUTE, {"mode": ["c"]})
        assert "must be one of" in excinfo.value.message


class TestErrorEnvelope:
    def test_envelope_shape_on_400_404_405(self, app):
        cases = [
            (get(app, "/v1/workspaces/ws-00/ranking?bogus=1"), 400),
            (get(app, "/v1/workspaces/nope/ranking"), 404),
            (app.handle("POST", "/healthz"), 405),
        ]
        for response, status in cases:
            assert response.status == status
            envelope = body(response)["error"]
            assert set(envelope) == {"code", "message", "detail"}
            assert envelope["code"] in ERROR_CODES

    def test_405_sets_allow_header(self, app):
        response = app.handle("DELETE", "/v1/evaluate")
        assert response.status == 405
        assert "POST" in response.headers["Allow"]
        assert body(response)["error"]["code"] == "method_not_allowed"

    def test_registry_not_found_code(self, app):
        response = get(app, "/v1/registries/ghost/workspaces/ws-00/ranking")
        assert response.status == 404
        assert body(response)["error"]["code"] == "registry_not_found"

    def test_version_not_found_carries_detail(self, app):
        response = get(app, "/v1/workspaces/ws-00/ranking?at=" + "ab" * 16)
        assert response.status == 404
        envelope = body(response)["error"]
        assert envelope["code"] == "version_not_found"
        assert envelope["detail"] == {"content_hash": "ab" * 16}

    def test_every_documented_code_is_a_known_string(self):
        for code, description in ERROR_CODES.items():
            assert code == code.lower()
            assert description


class TestAuth:
    @pytest.fixture()
    def authed(self, tmp_path, registry):
        with ServiceApp(tmp_path, auth_token="sekrit") as service_app:
            yield service_app

    def test_missing_token_is_401(self, authed):
        response = get(authed, "/v1/workspaces/ws-00/ranking")
        assert response.status == 401
        assert response.headers["WWW-Authenticate"] == "Bearer"
        assert body(response)["error"]["code"] == "unauthorized"

    def test_wrong_token_is_403(self, authed):
        response = get(
            authed,
            "/v1/workspaces/ws-00/ranking",
            Authorization="Bearer wrong",
        )
        assert response.status == 403
        assert body(response)["error"]["code"] == "forbidden"

    def test_right_token_passes(self, authed):
        response = get(
            authed,
            "/v1/workspaces/ws-00/ranking",
            Authorization="Bearer sekrit",
        )
        assert response.status == 200

    def test_public_routes_stay_open(self, authed):
        assert get(authed, "/healthz").status == 200
        assert get(authed, "/metrics").status == 200
        assert get(authed, "/v1/openapi.json").status == 200

    def test_no_token_configured_means_no_auth(self, app):
        assert get(app, "/v1/workspaces/ws-00/ranking").status == 200


class TestGzip:
    def test_accepts_gzip_parsing(self):
        assert accepts_gzip("gzip")
        assert accepts_gzip("gzip, deflate")
        assert accepts_gzip("deflate, gzip;q=0.5")
        assert accepts_gzip("*")
        assert not accepts_gzip(None)
        assert not accepts_gzip("")
        assert not accepts_gzip("gzip;q=0")
        assert not accepts_gzip("identity")

    def test_gzip_bytes_is_deterministic(self):
        payload = b"x" * 2048
        assert gzip_bytes(payload) == gzip_bytes(payload)
        assert gzip.decompress(gzip_bytes(payload)) == payload

    def test_large_body_compresses_when_accepted(self, app):
        plain = get(app, "/v1/registry")
        zipped = get(app, "/v1/registry", **{"Accept-Encoding": "gzip"})
        assert "Content-Encoding" not in plain.headers
        assert zipped.headers["Content-Encoding"] == "gzip"
        assert zipped.headers["Vary"] == "Accept-Encoding"
        assert gzip.decompress(zipped.body) == plain.body
        assert len(zipped.body) < len(plain.body)

    def test_small_body_stays_identity(self, app):
        # a 404 envelope is well under the compression threshold
        response = get(app, "/nope", **{"Accept-Encoding": "gzip"})
        assert len(response.body) < 512
        assert "Content-Encoding" not in response.headers

    def test_etag_is_unchanged_by_compression(self, app):
        plain = get(app, "/v1/workspaces/ws-00/ranking")
        zipped = get(
            app,
            "/v1/workspaces/ws-00/ranking",
            **{"Accept-Encoding": "gzip"},
        )
        assert plain.headers["ETag"] == zipped.headers["ETag"]

    def test_304_wins_over_gzip(self, app):
        etag = get(app, "/v1/workspaces/ws-00/ranking").headers["ETag"]
        response = get(
            app,
            "/v1/workspaces/ws-00/ranking",
            **{"Accept-Encoding": "gzip", "If-None-Match": etag},
        )
        assert response.status == 304
        assert response.body == b""
        assert "Content-Encoding" not in response.headers

    def test_gzip_client_revalidates_with_identity_etag(self, app):
        zipped = get(
            app,
            "/v1/workspaces/ws-00/ranking",
            **{"Accept-Encoding": "gzip"},
        )
        revalidated = get(
            app,
            "/v1/workspaces/ws-00/ranking",
            **{"If-None-Match": zipped.headers["ETag"]},
        )
        assert revalidated.status == 304


class TestOpenAPI:
    def test_served_spec_matches_route_table(self, app):
        response = get(app, "/v1/openapi.json")
        assert response.status == 200
        spec = body(response)
        assert spec == build_openapi(ROUTES)
        assert spec["openapi"] == "3.1.0"

    def test_every_route_has_an_operation(self):
        spec = build_openapi(ROUTES)
        operation_ids = {
            operation["operationId"]
            for methods in spec["paths"].values()
            for operation in methods.values()
        }
        assert operation_ids == {route.name for route in ROUTES}

    def test_legacy_routes_are_marked_deprecated(self):
        spec = build_openapi(ROUTES)
        ranking = spec["paths"]["/v1/workspaces/{id}/ranking"]["get"]
        assert ranking["deprecated"] is True
        new = spec["paths"][
            "/v1/registries/{registry}/workspaces/{id}/ranking"
        ]["get"]
        assert "deprecated" not in new

    def test_error_envelope_schema_lists_every_code(self):
        spec = build_openapi(ROUTES)
        schema = spec["components"]["schemas"]["ErrorEnvelope"]
        codes = schema["properties"]["error"]["properties"]["code"]["enum"]
        assert codes == sorted(ERROR_CODES)

    def test_non_public_routes_declare_bearer_security(self):
        spec = build_openapi(ROUTES)
        healthz = spec["paths"]["/healthz"]["get"]
        assert "security" not in healthz
        ranking = spec["paths"][
            "/v1/registries/{registry}/workspaces/{id}/ranking"
        ]["get"]
        assert {"bearerAuth": []} in ranking["security"]

"""Tests for the query service route table (no socket involved)."""

import json
import re

import pytest

from repro.core import workspace
from repro.core.engine import BatchEvaluator, compile_problem
from repro.core.index import RegistryIndex, eval_config_hash
from repro.core.runtime import BatchOptions, ShardedRunner
from repro.service.app import ServiceApp
from repro.service.cache import if_none_match_matches, make_etag

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
def registry(tmp_path):
    return write_registry(tmp_path)


@pytest.fixture()
def app(tmp_path, registry):
    with ServiceApp(tmp_path) as service_app:
        yield service_app


def get(app, target, **headers):
    return app.handle("GET", target, headers)


def body(response):
    return json.loads(response.body)


class TestRouting:
    def test_unknown_endpoint_404(self, app):
        assert get(app, "/nope").status == 404
        assert get(app, "/v1/workspaces/ws-00/unknown-verb").status == 404
        assert get(app, "/v1/workspaces").status == 404

    def test_wrong_method_405(self, app):
        assert app.handle("POST", "/healthz").status == 405
        assert app.handle("POST", "/v1/workspaces/ws-00/ranking").status == 405
        assert get(app, "/v1/evaluate").status == 405

    def test_healthz(self, app, tmp_path):
        response = get(app, "/healthz")
        assert response.status == 200
        payload = body(response)
        assert payload["status"] == "ok"
        assert payload["registry"] == str(tmp_path.resolve())

    def test_error_bodies_are_json_envelopes(self, app):
        payload = body(get(app, "/nope"))
        assert payload["error"]["code"] == "not_found"
        assert "unknown endpoint" in payload["error"]["message"]
        assert payload["error"]["detail"] is None


class TestRanking:
    def test_matches_engine_bit_exactly(self, app, registry):
        response = get(app, "/v1/workspaces/ws-01/ranking")
        assert response.status == 200
        evaluator = BatchEvaluator(
            compile_problem(workspace.load(registry[1]))
        )
        best = evaluator.evaluate().best
        row = body(response)["results"][0]
        assert row["best"]["name"] == best.name
        assert row["best"]["minimum"] == best.minimum
        assert row["best"]["average"] == best.average
        assert row["best"]["maximum"] == best.maximum

    def test_miss_index_hit_and_lru_hit_serve_identical_bytes(self, app):
        first = get(app, "/v1/workspaces/ws-00/ranking")
        assert first.headers["X-Cache"] == "miss"
        app.cache.clear()  # force the next build to come from the index
        second = get(app, "/v1/workspaces/ws-00/ranking")
        assert second.headers["X-Cache"] == "miss"
        third = get(app, "/v1/workspaces/ws-00/ranking")
        assert third.headers["X-Cache"] == "hit"
        assert first.body == second.body == third.body

    def test_read_through_miss_matches_batch_runner_bytes(
        self, tmp_path, registry
    ):
        # evaluate via the batch path first, against a separate index db:
        # the reference numbers the service must reproduce byte-for-byte
        report = ShardedRunner(workers=1).run([str(registry[2])])
        reference = report.results[0]
        with ServiceApp(tmp_path) as app:
            row = body(get(app, "/v1/workspaces/ws-02/ranking"))["results"][0]
        assert row["name"] == reference.name
        assert row["best"]["minimum"] == reference.best_minimum
        assert row["best"]["average"] == reference.best_average
        assert row["best"]["maximum"] == reference.best_maximum

    def test_index_hit_serves_batch_cached_floats(self, tmp_path, registry):
        # warm the shared index through the batch path, then serve:
        # the service's first answer is already an index hit
        db = tmp_path / ".repro-index.sqlite"
        with RegistryIndex(db) as index:
            report = ShardedRunner(workers=1).run(
                [str(p) for p in registry], index=index
            )
        with ServiceApp(tmp_path) as app:
            row = body(get(app, "/v1/workspaces/ws-03/ranking"))["results"][0]
            n_rows_after = app.index.status()["n_result_rows"]
        reference = report.results[3]
        assert row["best"]["minimum"] == reference.best_minimum
        assert row["best"]["average"] == reference.best_average
        assert row["best"]["maximum"] == reference.best_maximum
        # served, not re-evaluated: no new rows were committed
        assert n_rows_after == len(registry)

    def test_read_through_commits_back_to_the_shared_cache(
        self, app, tmp_path, registry
    ):
        get(app, "/v1/workspaces/ws-00/ranking")
        config_hash = eval_config_hash(BatchOptions())
        record, _ = app.index.probe(registry[0])
        rows = app.index.lookup_results(record.content_hash, config_hash)
        assert rows is not None and rows[0].sub_index == 0
        # a batch run over the same registry now counts it as cached
        report = ShardedRunner(workers=1).run(
            [str(registry[0])], index=app.index
        )
        assert report.n_cached == 1

    def test_rejects_query_parameters(self, app):
        assert get(app, "/v1/workspaces/ws-00/ranking?simulations=5").status \
            == 400


class TestMonteCarlo:
    def test_matches_runner_options_bit_exactly(self, app, registry):
        options = BatchOptions(simulations=300, method="intervals", seed=11)
        reference = ShardedRunner(workers=1, options=options).run(
            [str(registry[1])]
        ).results[0]
        response = get(
            app, "/v1/workspaces/ws-01/montecarlo?simulations=300&seed=11"
        )
        row = body(response)["results"][0]
        assert row["ever_best"] == reference.ever_best
        assert row["top5_fluctuation"] == reference.top5_fluctuation
        assert row["best"]["average"] == reference.best_average

    def test_distinct_configs_get_distinct_cache_entries(self, app):
        a = get(app, "/v1/workspaces/ws-00/montecarlo?simulations=100&seed=1")
        b = get(app, "/v1/workspaces/ws-00/montecarlo?simulations=100&seed=2")
        assert a.status == b.status == 200
        assert a.body != b.body
        assert a.headers["ETag"] != b.headers["ETag"]

    def test_parameter_validation(self, app):
        base = "/v1/workspaces/ws-00/montecarlo"
        assert get(app, base + "?simulations=0").status == 400
        assert get(app, base + "?simulations=abc").status == 400
        assert get(app, base + "?method=bogus").status == 400
        assert get(app, base + "?seed=x").status == 400
        assert get(app, base + "?bogus=1").status == 400


class TestScreening:
    def test_dominance_matches_engine(self, app, registry):
        evaluator = BatchEvaluator(
            compile_problem(workspace.load(registry[0]))
        )
        matrix = evaluator.dominance_matrix()
        payload = body(get(app, "/v1/workspaces/ws-00/dominance"))
        assert payload["alternatives"] == list(evaluator.alternative_names)
        assert payload["matrix"] == [
            [bool(x) for x in row] for row in matrix
        ]
        dominated = matrix.any(axis=0)
        assert payload["non_dominated"] == [
            name
            for name, hit in zip(evaluator.alternative_names, dominated)
            if not hit
        ]

    def test_rankintervals_matches_engine(self, app, registry):
        evaluator = BatchEvaluator(
            compile_problem(workspace.load(registry[1]))
        )
        intervals = evaluator.rank_intervals()
        payload = body(get(app, "/v1/workspaces/ws-01/rankintervals"))
        assert payload["intervals"] == [
            {
                "name": name,
                "best": intervals[name].best,
                "worst": intervals[name].worst,
            }
            for name in evaluator.alternative_names
        ]

    def test_second_request_is_an_lru_hit(self, app):
        first = get(app, "/v1/workspaces/ws-00/dominance")
        second = get(app, "/v1/workspaces/ws-00/dominance")
        assert first.headers["X-Cache"] == "miss"
        assert second.headers["X-Cache"] == "hit"
        assert first.body == second.body


class TestETag:
    def test_if_none_match_revalidates_to_304(self, app):
        first = get(app, "/v1/workspaces/ws-00/ranking")
        etag = first.headers["ETag"]
        revalidated = app.handle(
            "GET",
            "/v1/workspaces/ws-00/ranking",
            {"If-None-Match": etag},
        )
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.headers["ETag"] == etag

    def test_star_and_weak_comparison(self, app):
        etag = get(app, "/v1/workspaces/ws-00/ranking").headers["ETag"]
        for header in ("*", f"W/{etag}", f'"other", {etag}'):
            response = app.handle(
                "GET",
                "/v1/workspaces/ws-00/ranking",
                {"If-None-Match": header},
            )
            assert response.status == 304, header

    def test_semantic_edit_invalidates_the_validator(
        self, app, tmp_path, registry
    ):
        old = get(app, "/v1/workspaces/ws-00/ranking")
        data = json.loads(registry[0].read_text())
        data["name"] = data["name"] + "-edited"
        registry[0].write_text(json.dumps(data, indent=2, sort_keys=True))
        fresh = app.handle(
            "GET",
            "/v1/workspaces/ws-00/ranking",
            {"If-None-Match": old.headers["ETag"]},
        )
        assert fresh.status == 200  # stale validator no longer matches
        assert fresh.headers["ETag"] != old.headers["ETag"]
        assert body(fresh)["results"][0]["name"].endswith("-edited")

    def test_touch_keeps_the_validator(self, app, registry):
        import os

        etag = get(app, "/v1/workspaces/ws-00/ranking").headers["ETag"]
        os.utime(registry[0])  # new stat fingerprint, same bytes
        assert get(app, "/v1/workspaces/ws-00/ranking").headers["ETag"] == etag

    def test_make_etag_and_matching_helpers(self):
        etag = make_etag("ranking", "abc", "def")
        assert etag.startswith('"') and etag.endswith('"')
        assert make_etag("ranking", "abc", "xyz") != etag
        assert if_none_match_matches(etag, etag)
        assert if_none_match_matches("*", etag)
        assert not if_none_match_matches(None, etag)
        assert not if_none_match_matches('"nope"', etag)


class TestErrors:
    def test_unknown_workspace_404(self, app):
        assert get(app, "/v1/workspaces/ghost/ranking").status == 404

    def test_traversal_id_400(self, app):
        response = app.handle(
            "GET", "/v1/workspaces/%2e%2e/secrets/ranking"
        )
        assert response.status == 400

    def test_corrupt_workspace_409(self, app, tmp_path):
        (tmp_path / "corrupt.json").write_text("{not json")
        for verb in ("ranking", "montecarlo", "dominance", "rankintervals"):
            assert get(app, f"/v1/workspaces/corrupt/{verb}").status == 409


class TestEvaluate:
    def post(self, app, payload):
        raw = payload if isinstance(payload, bytes) else json.dumps(
            payload
        ).encode()
        return app.handle("POST", "/v1/evaluate", {}, raw)

    def test_matches_engine_bit_exactly(self, app):
        problem = make_small_problem(name="adhoc")
        response = self.post(app, workspace.to_dict(problem))
        assert response.status == 200
        payload = body(response)
        evaluation = BatchEvaluator(compile_problem(problem)).evaluate()
        assert payload["best"] == evaluation.best.name
        for served, row in zip(payload["ranking"], evaluation):
            assert served["rank"] == row.rank
            assert served["name"] == row.name
            assert served["minimum"] == row.minimum
            assert served["average"] == row.average
            assert served["maximum"] == row.maximum

    def test_envelope_with_monte_carlo(self, app):
        problem = make_small_problem(missing_cell=True, name="adhoc-mc")
        evaluator = BatchEvaluator(compile_problem(problem))
        reference = evaluator.simulate(
            method="intervals",
            n_simulations=150,
            seed=5,
            sample_utilities="missing",
        )
        response = self.post(
            app,
            {
                "workspace": workspace.to_dict(problem),
                "simulations": 150,
                "seed": 5,
            },
        )
        mc = body(response)["montecarlo"]
        assert mc["ever_best"] == list(reference.ever_best())
        assert mc["top5_fluctuation"] == int(
            reference.max_fluctuation(reference.top_k_by_mean(5))
        )

    def test_bad_bodies_400(self, app):
        assert self.post(app, b"{nope").status == 400
        assert self.post(app, [1, 2]).status == 400
        assert self.post(app, {"format": "bogus/9"}).status == 400
        assert self.post(
            app, {"workspace": {"format": "bogus/9"}}
        ).status == 400
        assert self.post(
            app,
            {"workspace": {}, "unexpected": 1},
        ).status == 400
        assert self.post(
            app,
            {"workspace": {}, "simulations": -3},
        ).status == 400
        assert self.post(
            app,
            {"workspace": {}, "method": "bogus"},
        ).status == 400

    def test_nothing_is_persisted(self, app):
        before = app.index.status()["n_result_rows"]
        self.post(app, workspace.to_dict(make_small_problem(name="adhoc")))
        assert app.index.status()["n_result_rows"] == before


class TestRegistryListing:
    def test_lists_every_workspace_with_fingerprints(
        self, app, tmp_path, registry
    ):
        payload = body(get(app, "/v1/registry"))
        assert payload["n_workspaces"] == len(registry)
        ids = [entry["id"] for entry in payload["workspaces"]]
        assert ids == sorted(f"ws-{i:02d}" for i in range(len(registry)))
        entry = payload["workspaces"][0]
        record, _ = app.index.probe(registry[0])
        assert entry["content_hash"] == record.content_hash
        assert entry["source_sha"] == record.source_sha
        assert (entry["n_alternatives"], entry["n_attributes"]) == (3, 3)

    def test_embeds_index_status_with_result_summary(self, app):
        get(app, "/v1/workspaces/ws-00/ranking")
        payload = body(get(app, "/v1/registry"))
        assert payload["index"]["n_result_rows"] == 1
        assert payload["index"]["result_bytes"] > 0

    def test_marks_unreadable_entries(self, app, tmp_path):
        (tmp_path / "corrupt.json").write_text("{not json")
        payload = body(get(app, "/v1/registry"))
        by_id = {entry["id"]: entry for entry in payload["workspaces"]}
        assert by_id["corrupt"] == {"id": "corrupt", "error": "unreadable"}

    def test_listing_persists_fingerprints_for_later_fast_probes(
        self, app, registry
    ):
        assert app.index.status()["n_workspaces"] == 0
        get(app, "/v1/registry")
        # the next listing (and every ranking probe) now stat-matches
        assert app.index.status()["n_workspaces"] == len(registry)
        assert app.index.status()["fresh"] == len(registry)

    def test_nested_ids_resolve(self, app, tmp_path):
        nested = tmp_path / "deep" / "nested.json"
        nested.parent.mkdir()
        workspace.save(make_small_problem(name="nested"), nested)
        payload = body(get(app, "/v1/registry"))
        assert "deep/nested" in [e["id"] for e in payload["workspaces"]]
        assert get(app, "/v1/workspaces/deep/nested/ranking").status == 200


def scrape(app):
    """The Prometheus exposition text of ``GET /metrics``."""
    return get(app, "/metrics?format=prometheus").body.decode("utf-8")


def prometheus_samples(text, name):
    """``[(labels, value)]`` for one metric of an exposition text."""
    rows = []
    for line in text.splitlines():
        if not line.startswith(name + "{"):
            continue
        series, value = line.rsplit(" ", 1)
        labels = dict(re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', series))
        rows.append((labels, float(value)))
    return rows


def edit(path):
    """Change one performance cell so the content hash moves."""
    data = json.loads(path.read_text())
    perf = data["alternatives"][0]["performances"]
    key = sorted(perf)[0]
    perf[key] = 0.0 if perf[key] != 0.0 else 1.0
    path.write_text(json.dumps(data))


class TestMetrics:
    def test_counters_and_latency_shape(self, app):
        get(app, "/v1/workspaces/ws-00/ranking")
        get(app, "/v1/workspaces/ws-00/ranking")
        get(app, "/nope")
        payload = body(get(app, "/metrics"))
        requests = payload["requests"]
        assert requests["total"] == 3
        assert requests["by_endpoint"]["/v1/workspaces/{id}/ranking"] == 2
        assert requests["by_endpoint"]["(unmatched)"] == 1
        assert requests["by_registry"] == {"default": 2, "": 1}
        assert requests["by_status"]["200"] == 2
        assert requests["by_status"]["404"] == 1
        assert payload["cache"]["hits"] == 1
        assert payload["cache"]["misses"] == 1
        assert payload["cache"]["hit_ratio"] == 0.5
        assert payload["registries"]["default"]["cache"] == payload["cache"]
        latency = payload["latency"]
        assert latency["count"] == 3
        assert 0.0 < latency["mean_ms"]
        assert latency["p50_ms"] <= latency["p99_ms"]

    def test_empty_latency_has_no_quantiles(self, app):
        latency = body(get(app, "/metrics"))["latency"]
        assert latency == {
            "count": 0,
            "p50_ms": None,
            "p99_ms": None,
            "mean_ms": None,
        }

    def test_304_counted(self, app):
        etag = get(app, "/v1/workspaces/ws-00/ranking").headers["ETag"]
        app.handle(
            "GET", "/v1/workspaces/ws-00/ranking", {"If-None-Match": etag}
        )
        payload = body(get(app, "/metrics"))
        assert payload["requests"]["not_modified"] == 1

    def test_unmatched_requests_keep_label_cardinality_bounded(self, app):
        """10k unique 404 paths and 405s to concrete workspace paths
        must not mint one request series per URL."""
        from repro.service.app import ROUTES

        paths = [f"/nope-{i}" for i in range(4_000)]
        paths += [f"/v1/workspaces/ws-00/verb-{i}" for i in range(3_000)]
        paths += [f"/v1/registries/gone-{i}/registry" for i in range(3_000)]
        for path in paths:
            assert get(app, path).status == 404
        for i in range(1_000):
            assert app.handle(
                "POST", f"/v1/workspaces/ws-{i:04d}/ranking"
            ).status == 405
            assert app.handle(
                "DELETE", f"/v1/registries/default/workspaces/w{i}/dominance"
            ).status == 405
        rows = prometheus_samples(scrape(app), "repro_http_requests_total")
        assert sum(value for _, value in rows) == 12_000
        route_labels = {route.label for route in ROUTES}
        endpoints = {}
        for labels, _ in rows:
            assert labels["registry"] == ""
            pair = (labels["registry"], labels["status"])
            endpoints.setdefault(pair, set()).add(labels["endpoint"])
        assert set(endpoints) == {("", "404"), ("", "405")}
        for labels in endpoints.values():
            assert labels <= route_labels | {"(unmatched)"}
            assert len(labels) <= len(route_labels) + 1
        by_endpoint = body(get(app, "/metrics"))["requests"]["by_endpoint"]
        assert by_endpoint == {
            "(unmatched)": 9_000,
            "/v1/registries/{registry}/registry": 3_000,
            "/metrics": 1,
        }

    def test_json_and_prometheus_agree(self, tmp_path, tmp_path_factory):
        """Both formats read the same series, so after a mixed
        sequence the JSON splits equal the exposition samples."""
        beta = tmp_path_factory.mktemp("beta")
        write_registry(tmp_path)
        write_registry(beta)
        with ServiceApp(tmp_path, mounts={"beta": beta}) as app:
            ranking = "/v1/workspaces/ws-00/ranking"
            etag = get(app, ranking).headers["ETag"]
            get(app, ranking)
            assert get(app, ranking, **{"If-None-Match": etag}).status == 304
            for _ in range(3):
                get(app, "/v1/registries/beta/workspaces/ws-01/ranking")
            get(app, "/v1/registries/beta/workspaces/ws-01/dominance")
            missing = "/v1/registries/beta/workspaces/missing/ranking"
            assert get(app, missing).status == 404
            assert get(app, "/nope").status == 404
            assert app.handle("POST", ranking).status == 405
            get(app, "/healthz")
            snapshot = body(get(app, "/metrics"))
            text = scrape(app)

        requests = snapshot["requests"]
        assert requests["total"] == 11
        assert requests["by_registry"] == {"default": 3, "beta": 5, "": 3}
        assert requests["by_status"] == {
            "200": 7, "304": 1, "404": 2, "405": 1,
        }
        assert requests["not_modified"] == 1
        rows = prometheus_samples(text, "repro_http_requests_total")
        # the scrape also counts the JSON request that preceded it
        assert sum(value for _, value in rows) == requests["total"] + 1
        for label, extra in (
            ("endpoint", "/metrics"), ("registry", ""), ("status", "200"),
        ):
            expected = dict(requests["by_" + label])
            expected[extra] = expected.get(extra, 0) + 1
            seen = {}
            for labels, value in rows:
                key = labels[label]
                seen[key] = seen.get(key, 0) + int(value)
            assert seen == expected, label

        for field in ("hits", "misses"):
            rows = prometheus_samples(
                text, f"repro_response_cache_{field}_total"
            )
            counted = {labels["registry"]: int(v) for labels, v in rows}
            for name in ("default", "beta"):
                block = snapshot["registries"][name]["cache"]
                assert block[field] == counted[name], (name, field)
        caches = snapshot["registries"]
        assert (caches["default"]["cache"]["hits"],
                caches["default"]["cache"]["misses"]) == (1, 1)
        assert (caches["beta"]["cache"]["hits"],
                caches["beta"]["cache"]["misses"]) == (2, 2)
        assert snapshot["cache"] == caches["default"]["cache"]

    def test_snapshot_is_a_pure_read(self, app):
        get(app, "/v1/workspaces/ws-00/ranking")
        first = app._metrics_snapshot()
        second = app._metrics_snapshot()
        assert first == second
        assert first["latency"]["p50_ms"] >= 0.0


class TestPrometheusEndpoint:
    def test_json_stays_the_default(self, app):
        response = get(app, "/metrics")
        assert response.content_type == "application/json"
        assert "requests" in body(response)
        assert "requests" in body(get(app, "/metrics?format=json"))

    def test_prometheus_format_and_content_type(self, app):
        from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE

        get(app, "/v1/workspaces/ws-00/ranking")
        get(app, "/v1/workspaces/ws-00/ranking")
        response = get(app, "/metrics?format=prometheus")
        assert response.status == 200
        assert response.content_type == PROMETHEUS_CONTENT_TYPE
        text = response.body.decode("utf-8")
        assert (
            'repro_http_requests_total{endpoint="/v1/workspaces/{id}/'
            'ranking",registry="default",status="200"} 2' in text
        )
        assert 'repro_response_cache_hits_total{registry="default"} 1' in text
        assert (
            'repro_response_cache_misses_total{registry="default"} 1' in text
        )
        # the in-process evaluation fed the eval-latency histogram
        assert 'repro_eval_stage_seconds_bucket{stage="eval.stacked"' in text
        assert 'repro_breaker_state{registry="default"} 0' in text

    def test_prometheus_exposition_parses(self, app):
        """Every non-comment line is `name[{labels}] value`."""
        get(app, "/v1/workspaces/ws-00/ranking")
        text = get(app, "/metrics?format=prometheus").body.decode("utf-8")
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            float(value)  # must parse
            name = series.split("{", 1)[0]
            assert name.replace("_", "").isalnum(), line

    def test_histogram_buckets_monotonic_over_http(self, app):
        get(app, "/v1/workspaces/ws-00/ranking")
        text = get(app, "/metrics?format=prometheus").body.decode("utf-8")
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_http_request_seconds_bucket")
        ]
        assert counts, "expected request latency buckets"
        assert counts == sorted(counts)
        assert counts[-1] >= 1.0

    def test_unknown_format_is_400(self, app):
        response = get(app, "/metrics?format=xml")
        assert response.status == 400
        assert "unknown metrics format" in body(response)["error"]["message"]


class TestRequestId:
    def test_client_request_id_echoes_back(self, app):
        response = app.handle(
            "GET", "/healthz", {"X-Request-Id": "req-42"}
        )
        assert response.headers["X-Request-Id"] == "req-42"

    def test_request_id_generated_when_absent(self, app):
        first = get(app, "/healthz").headers["X-Request-Id"]
        second = get(app, "/healthz").headers["X-Request-Id"]
        assert first and second and first != second

    def test_error_responses_carry_request_id(self, app):
        response = app.handle("GET", "/nope", {"X-Request-Id": "req-err"})
        assert response.status == 404
        assert response.headers["X-Request-Id"] == "req-err"

    def test_request_id_lands_on_the_http_span(self, app):
        from repro.obs import trace

        with trace.tracing() as tracer:
            app.handle("GET", "/healthz", {"X-Request-Id": "req-span"})
        roots = [s for s in tracer.spans() if s.name == "http.request"]
        assert len(roots) == 1
        assert roots[0].attributes["request_id"] == "req-span"
        assert roots[0].attributes["path"] == "/healthz"


class TestCacheInvalidation:
    """One cache entry per request; an edit replaces it, never adds one."""

    def test_edit_invalidates_only_that_workspace(self, app, registry):
        """A detected edit re-renders the edited workspace's reads and
        replaces their entries, while other entries stay hot."""
        old = get(app, "/v1/workspaces/ws-00/ranking")
        get(app, "/v1/workspaces/ws-00/dominance")
        get(app, "/v1/workspaces/ws-01/ranking")
        assert len(app.cache) == 3

        edit(registry[0])
        first = get(app, "/v1/workspaces/ws-00/ranking")
        assert first.status == 200
        assert first.headers["X-Cache"] == "miss"
        assert first.headers["ETag"] != old.headers["ETag"]
        etags = {entry.etag for entry in app.cache._entries.values()}
        assert first.headers["ETag"] in etags
        assert old.headers["ETag"] not in etags
        assert len(app.cache) == 3
        hit = get(app, "/v1/workspaces/ws-01/ranking")
        assert hit.headers["X-Cache"] == "hit"

    def test_listing_absorbs_an_edit_like_a_read(self, app, registry):
        """GET /v1/registry records an edited workspace's new identity;
        the next read renders that version and other reads stay hot."""
        old = get(app, "/v1/workspaces/ws-00/ranking")
        get(app, "/v1/workspaces/ws-00/dominance")
        get(app, "/v1/workspaces/ws-01/ranking")
        edit(registry[0])
        listing = get(app, "/v1/registry")
        assert listing.status == 200
        listed = {w["id"]: w for w in body(listing)["workspaces"]}
        new_hash = listed["ws-00"]["content_hash"]
        assert new_hash != body(old)["content_hash"]
        assert len(app.cache) == 3
        hit = get(app, "/v1/workspaces/ws-01/ranking")
        assert hit.headers["X-Cache"] == "hit"
        fresh = get(app, "/v1/workspaces/ws-00/ranking")
        assert fresh.headers["X-Cache"] == "miss"
        assert body(fresh)["content_hash"] == new_hash
        assert len(app.cache) == 3

    def test_touch_keeps_entries_hot(self, app, registry):
        get(app, "/v1/workspaces/ws-00/ranking")
        size_before = len(app.cache)
        registry[0].touch()
        response = get(app, "/v1/workspaces/ws-00/ranking")
        assert response.status == 200
        assert len(app.cache) == size_before

    def test_a_copy_answers_with_its_own_id(self, app, registry, tmp_path):
        """Two files with equal content share ETags but not bodies: the
        copy's reads name the copy, not the workspace read first."""
        verbs = (
            "ranking",
            "montecarlo?simulations=20",
            "dominance",
            "rankintervals",
        )
        originals = [get(app, f"/v1/workspaces/ws-00/{v}") for v in verbs]
        (tmp_path / "copy.json").write_bytes(registry[0].read_bytes())
        for verb, original in zip(verbs, originals):
            copy = get(app, f"/v1/workspaces/copy/{verb}")
            assert copy.status == 200, verb
            assert body(copy)["workspace"] == "copy", verb
            assert copy.headers["ETag"] == original.headers["ETag"]
            again = get(app, f"/v1/workspaces/ws-00/{verb}")
            assert again.headers["X-Cache"] == "hit", verb
            assert again.body == original.body

    def test_concurrent_edits_keep_each_body_with_its_etag(
        self, app, registry
    ):
        """Readers racing an editor always get a body rendered from the
        version their ETag names, for the workspace they asked for."""
        import os
        import sys
        import threading

        ranking_config = eval_config_hash(BatchOptions())
        errors = []

        def reader(ws_id):
            try:
                for _ in range(10):
                    for verb in ("ranking", "dominance"):
                        response = get(app, f"/v1/workspaces/{ws_id}/{verb}")
                        assert response.status == 200
                        doc = body(response)
                        assert doc["workspace"] == ws_id
                        parts = [verb, doc["content_hash"]]
                        if verb == "ranking":
                            parts.append(ranking_config)
                        assert response.headers["ETag"] == make_etag(*parts)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def editor():
            try:
                for k in range(6):
                    staged = registry[0].with_suffix(f".tmp{k}")
                    staged.write_bytes(registry[0].read_bytes())
                    edit(staged)
                    os.replace(staged, registry[0])
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(ws_id,))
            for ws_id in ("ws-00", "ws-00", "ws-01")
        ]
        threads.append(threading.Thread(target=editor))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(app.cache) == 4

    def test_response_cache_get_matches_the_etag(self):
        from repro.service.cache import CachedResponse, ResponseCache

        cache = ResponseCache(capacity=8)
        cache.put(("ranking", "ws", ""), CachedResponse(b"a", '"a"'))
        assert cache.get(("ranking", "ws", ""), '"a"').body == b"a"
        assert cache.get(("ranking", "ws", ""), '"b"') is None
        assert cache.get(("ranking", "ws", "")).body == b"a"
        cache.put(("ranking", "ws", ""), CachedResponse(b"b", '"b"'))
        assert len(cache) == 1
        assert cache.get(("ranking", "ws", ""), '"b"').body == b"b"


def write_members(tmp_path, n_members=3):
    members = []
    for k in range(n_members):
        local = {}
        for i, node in enumerate(
            ("cost", "quality", "battery life", "vendor support")
        ):
            factor = 1.0 + 0.2 * ((k + i) % 3)
            local[node] = [0.8 * factor, 1.2 * factor]
        members.append({"name": f"dm-{k}", "local": local})
    path = tmp_path / "members.json"
    path.write_text(
        json.dumps({"format": "repro-members/1", "members": members})
    )
    return path


@pytest.fixture()
def group_app(tmp_path, tmp_path_factory, registry):
    # the roster lives OUTSIDE the registry tree: it is configuration,
    # not a workspace, and must not show up in the registry listing
    members_path = write_members(tmp_path_factory.mktemp("roster"), 3)
    with ServiceApp(tmp_path, members_path=members_path) as service_app:
        yield service_app


class TestGroupEndpoint:
    def test_group_result_matches_group_decision(self, group_app, registry):
        from repro.core.engine import GroupResult
        from repro.core.group import (
            GroupDecision,
            load_members,
            members_from_spec,
        )

        response = get(group_app, "/v1/workspaces/ws-01/group")
        assert response.status == 200
        payload = body(response)
        problem = workspace.load(registry[1])
        spec = load_members(group_app.members_path)
        expected = GroupDecision(
            problem, members_from_spec(spec, problem.hierarchy)
        ).result()
        assert GroupResult.from_payload(payload["group"]) == expected
        assert payload["members_digest"] == group_app.members_digest

    def test_without_roster_404(self, app):
        response = get(app, "/v1/workspaces/ws-00/group")
        assert response.status == 404
        assert "no member roster" in body(response)["error"]["message"]

    def test_etag_304_and_cache_hit(self, group_app):
        first = get(group_app, "/v1/workspaces/ws-00/group")
        etag = first.headers["ETag"]
        again = get(group_app, "/v1/workspaces/ws-00/group")
        assert again.headers["X-Cache"] == "hit"
        assert again.body == first.body
        not_modified = group_app.handle(
            "GET", "/v1/workspaces/ws-00/group", {"If-None-Match": etag}
        )
        assert not_modified.status == 304

    def test_read_through_shares_cache_with_group_runs(
        self, tmp_path, registry, group_app
    ):
        """Rows a `repro group` run commits serve byte-identically."""
        from repro.core.group import load_members
        from repro.core.runtime import BatchOptions, ShardedRunner

        spec = load_members(group_app.members_path)
        ShardedRunner(workers=1, options=BatchOptions(group=spec)).run(
            [str(p) for p in registry], index=group_app.index
        )
        warm = get(group_app, "/v1/workspaces/ws-02/group")
        assert warm.status == 200
        # the served rows ARE the committed rows: evaluate independently
        with ServiceApp(
            tmp_path, members_path=group_app.members_path
        ) as fresh_app:
            fresh = get(fresh_app, "/v1/workspaces/ws-02/group")
        assert fresh.body == warm.body

    def test_query_params_rejected(self, group_app):
        response = get(group_app, "/v1/workspaces/ws-00/group?simulations=5")
        assert response.status == 400

    def test_group_etag_differs_from_ranking_etag(self, group_app):
        ranking = get(group_app, "/v1/workspaces/ws-00/ranking")
        group = get(group_app, "/v1/workspaces/ws-00/group")
        assert ranking.headers["ETag"] != group.headers["ETag"]

    def test_healthz_reports_members(self, group_app):
        payload = body(get(group_app, "/healthz"))
        assert payload["members"] == str(group_app.members_path)

    def test_malformed_roster_fails_boot(self, tmp_path, registry):
        bad = tmp_path / "bad-members.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="format"):
            ServiceApp(tmp_path, members_path=bad)

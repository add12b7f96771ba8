"""Graceful degradation: circuit breaker, stale reads, degraded health.

The service must keep *serving* through evaluation failure storms and
registry-index outages: evaluations are refused fast (503 +
``Retry-After``) once the circuit opens, index-down reads replay the
cache entry of the same request with ``Warning: 110``, and
``/healthz`` reports ``degraded`` while staying HTTP 200 so load
balancers don't eject a still-useful instance.
"""

import json
import sqlite3

import pytest

from repro.core import workspace
from repro.service.app import ServiceApp, _CircuitBreaker

from ..conftest import make_small_problem


def write_registry(tmp_path, n=3):
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


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=30.0):
        clock = FakeClock()
        return _CircuitBreaker(threshold, cooldown, clock=clock), clock

    def test_closed_lets_everything_through(self):
        breaker, _ = self.make()
        assert all(breaker.acquire() is None for _ in range(10))
        assert breaker.state == "closed"

    def test_opens_after_consecutive_failures_only(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_open_refuses_with_remaining_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=30.0)
        breaker.record_failure()
        assert breaker.acquire() == 30
        clock.advance(12.0)
        assert breaker.acquire() == 18
        # never advertises less than a whole second
        clock.advance(17.5)
        assert breaker.acquire() == 1

    def test_half_open_admits_a_single_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.acquire() is None  # the probe
        assert breaker.state == "half-open"
        assert breaker.acquire() is not None  # everyone else waits

    def test_probe_success_closes_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=2, cooldown=10.0)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.acquire() is None
        breaker.record_failure()  # single half-open failure re-opens
        assert breaker.state == "open"
        clock.advance(10.0)
        assert breaker.acquire() is None
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.acquire() is None

    def test_aborted_probe_frees_the_slot(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.acquire() is None
        breaker.abort_probe()  # probe died without a verdict
        assert breaker.acquire() is None  # next caller may probe
        assert breaker.state == "half-open"

    def test_snapshot_shape(self):
        breaker, _ = self.make(threshold=3, cooldown=7.0)
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {
            "state": "closed",
            "consecutive_failures": 1,
            "threshold": 3,
            "cooldown_seconds": 7.0,
        }


class _ExplodingRunner:
    def __init__(self, *args, **kwargs):
        pass

    def run(self, *args, **kwargs):
        raise RuntimeError("evaluator crashed")


class TestEvaluationFailures:
    def test_failure_maps_to_503_with_retry_after(self, app, monkeypatch):
        monkeypatch.setattr(
            "repro.service.app.ShardedRunner", _ExplodingRunner
        )
        response = get(app, "/v1/workspaces/ws-00/ranking")
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert "evaluation failed" in body(response)["error"]["message"]
        assert app.breaker.snapshot()["consecutive_failures"] == 1

    def test_breaker_opens_then_cools_down_and_recovers(
        self, app, monkeypatch
    ):
        clock = FakeClock()
        app.breaker = _CircuitBreaker(
            threshold=2, cooldown=30.0, clock=clock
        )
        monkeypatch.setattr(
            "repro.service.app.ShardedRunner", _ExplodingRunner
        )
        for _ in range(2):
            assert get(app, "/v1/workspaces/ws-00/ranking").status == 503
        assert app.breaker.state == "open"

        # open circuit: refused fast, no evaluation attempted
        refused = get(app, "/v1/workspaces/ws-00/ranking")
        assert refused.status == 503
        assert "circuit open" in body(refused)["error"]["message"]
        assert int(refused.headers["Retry-After"]) >= 1

        # cooldown over + machinery repaired: the probe closes it
        monkeypatch.undo()
        clock.advance(30.0)
        recovered = get(app, "/v1/workspaces/ws-00/ranking")
        assert recovered.status == 200
        assert app.breaker.state == "closed"

    def test_content_409_does_not_trip_the_breaker(self, app, registry):
        torn = registry[0].read_text()
        registry[0].write_text(torn[: len(torn) // 2])
        workspace.compiled_array_path(registry[0]).unlink(missing_ok=True)
        response = get(app, "/v1/workspaces/ws-00/ranking")
        assert response.status in (409, 422)
        assert app.breaker.state == "closed"
        assert app.breaker.snapshot()["consecutive_failures"] == 0


def _kill_index(app, monkeypatch):
    """Make every index read raise, as a crashed/corrupted sqlite would."""

    def explode(*args, **kwargs):
        raise sqlite3.OperationalError("database disk image is malformed")

    for name in ("examine", "probe", "ping", "lookup_results"):
        monkeypatch.setattr(app.index, name, explode)


class TestStaleServing:
    def test_primed_endpoint_serves_stale_with_warning(
        self, app, monkeypatch
    ):
        fresh = get(app, "/v1/workspaces/ws-01/ranking")
        assert fresh.status == 200

        _kill_index(app, monkeypatch)
        stale = get(app, "/v1/workspaces/ws-01/ranking")
        assert stale.status == 200
        assert stale.body == fresh.body
        assert stale.headers["X-Cache"] == "stale"
        assert stale.headers["Warning"] == '110 - "Response is Stale"'
        assert stale.headers["ETag"] == fresh.headers["ETag"]

    def test_unprimed_endpoint_degrades_to_503(self, app, monkeypatch):
        _kill_index(app, monkeypatch)
        response = get(app, "/v1/workspaces/ws-02/ranking")
        assert response.status == 503
        assert response.headers["Retry-After"] == "5"
        assert "index unavailable" in body(response)["error"]["message"]

    def test_stale_body_tracks_the_latest_good_answer(
        self, app, registry, monkeypatch
    ):
        first = get(app, "/v1/workspaces/ws-01/ranking")
        # edit the workspace: the next healthy read re-evaluates ...
        text = registry[1].read_text()
        registry[1].write_text(text.replace("ws-01", "ws-01-edited"))
        second = get(app, "/v1/workspaces/ws-01/ranking")
        assert second.status == 200 and second.body != first.body
        # ... and the stale fallback replays the *new* body
        _kill_index(app, monkeypatch)
        stale = get(app, "/v1/workspaces/ws-01/ranking")
        assert stale.body == second.body

    def test_stale_replay_is_per_request_configuration(
        self, app, monkeypatch
    ):
        """Another Monte Carlo configuration was never answered, so the
        outage has nothing to replay for it."""
        primed = get(app, "/v1/workspaces/ws-01/montecarlo?simulations=100")
        assert primed.status == 200
        _kill_index(app, monkeypatch)
        other = get(app, "/v1/workspaces/ws-01/montecarlo?simulations=200")
        assert other.status == 503
        assert other.headers["Retry-After"] == "5"
        same = get(app, "/v1/workspaces/ws-01/montecarlo?simulations=100")
        assert same.status == 200
        assert same.headers["X-Cache"] == "stale"
        assert same.body == primed.body

    def test_pinned_read_replays_only_the_version_it_names(
        self, app, registry, monkeypatch
    ):
        old = get(app, "/v1/workspaces/ws-01/ranking")
        old_hash = body(old)["content_hash"]
        text = registry[1].read_text()
        registry[1].write_text(text.replace("ws-01", "ws-01-edited"))
        current = get(app, "/v1/workspaces/ws-01/ranking")
        new_hash = body(current)["content_hash"]
        assert new_hash != old_hash
        _kill_index(app, monkeypatch)
        pinned_old = get(app, f"/v1/workspaces/ws-01/ranking?at={old_hash}")
        assert pinned_old.status == 503
        assert "index unavailable" in body(pinned_old)["error"]["message"]
        pinned_new = get(app, f"/v1/workspaces/ws-01/ranking?at={new_hash}")
        assert pinned_new.status == 200
        assert pinned_new.body == current.body
        assert pinned_new.headers["ETag"] == current.headers["ETag"]


class TestDegradedHealthz:
    def test_index_outage_reports_degraded_but_200(self, app, monkeypatch):
        _kill_index(app, monkeypatch)
        response = get(app, "/healthz")
        assert response.status == 200
        payload = body(response)
        assert payload["status"] == "degraded"
        assert payload["index_available"] is False
        assert "malformed" in payload["index_error"]

    def test_open_breaker_reports_degraded(self, app):
        for _ in range(app.breaker.snapshot()["threshold"]):
            app.breaker.record_failure()
        payload = body(get(app, "/healthz"))
        assert payload["status"] == "degraded"
        assert payload["index_available"] is True
        assert payload["circuit_breaker"]["state"] == "open"

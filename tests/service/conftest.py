"""Shared fixtures for the service tests."""

import pytest

from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def fresh_metrics_registry():
    """Start every service test from an empty process metrics registry.

    The service counts requests and cache lookups only in the
    process-wide :mod:`repro.obs.metrics` registry, which both ``GET
    /metrics`` formats read, so one test's requests must not leak into
    the next test's counts.
    """
    previous = obs_metrics.registry()
    obs_metrics.reset_registry()
    yield
    obs_metrics.set_registry(previous)

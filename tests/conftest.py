"""Shared fixtures.

Expensive artefacts (the case-study problem, its additive model, the
synthetic corpus, a Monte Carlo run) are built once per session; tests
must treat them as read-only.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.casestudy.corpus import multimedia_registry
from repro.casestudy.problem import multimedia_problem
from repro.core.hierarchy import Hierarchy, ObjectiveNode
from repro.core.interval import Interval
from repro.core.model import AdditiveModel
from repro.core.montecarlo import simulate
from repro.core.performance import Alternative, PerformanceTable
from repro.core.problem import DecisionProblem
from repro.core.scales import MISSING, ContinuousScale, linguistic_0_3
from repro.core.utility import banded_discrete_utility, linear_utility
from repro.core import workspace
from repro.core.weights import WeightSystem


@pytest.fixture(scope="session")
def case_problem() -> DecisionProblem:
    return multimedia_problem()


@pytest.fixture(scope="session")
def case_model(case_problem) -> AdditiveModel:
    return AdditiveModel(case_problem)


@pytest.fixture(scope="session")
def case_registry():
    return multimedia_registry()


@pytest.fixture(scope="session")
def case_mc(case_model):
    return simulate(
        case_model,
        method="intervals",
        n_simulations=10_000,
        seed=2012,
        sample_utilities="missing",
    )


def make_small_problem(
    missing_cell: bool = False,
    name: str = "laptops",
) -> DecisionProblem:
    """A compact 3-alternative, 3-attribute problem used across tests.

    Attributes: price (continuous, less is better), battery (0-3
    linguistic), support (0-3 linguistic).  Alternative "mid" may carry
    a missing support performance.
    """
    price = ContinuousScale("price", 300.0, 1500.0, ascending=False, unit="EUR")
    battery = linguistic_0_3("battery")
    support = linguistic_0_3("support")
    scales = {"price": price, "battery": battery, "support": support}

    table = PerformanceTable(
        scales,
        [
            Alternative("cheap", {"price": 400.0, "battery": 1, "support": 1}),
            Alternative(
                "mid",
                {
                    "price": 800.0,
                    "battery": 2,
                    "support": MISSING if missing_cell else 2,
                },
            ),
            Alternative("premium", {"price": 1400.0, "battery": 3, "support": 3}),
        ],
    )
    root = ObjectiveNode(
        "overall",
        children=[
            ObjectiveNode("cost", attribute="price"),
            ObjectiveNode(
                "quality",
                children=[
                    ObjectiveNode("battery life", attribute="battery"),
                    ObjectiveNode("vendor support", attribute="support"),
                ],
            ),
        ],
    )
    hierarchy = Hierarchy(root)
    utilities = {
        "price": linear_utility(price),
        "battery": banded_discrete_utility(battery),
        "support": banded_discrete_utility(support),
    }
    weights = WeightSystem(
        hierarchy,
        {
            "cost": Interval(0.3, 0.5),
            "quality": Interval(0.5, 0.7),
            "battery life": Interval(0.4, 0.6),
            "vendor support": Interval(0.4, 0.6),
        },
    )
    return DecisionProblem(hierarchy, table, utilities, weights, name=name)


@pytest.fixture()
def small_problem() -> DecisionProblem:
    return make_small_problem()


@pytest.fixture()
def small_problem_missing() -> DecisionProblem:
    return make_small_problem(missing_cell=True)


def artifact_layout(blob: bytes):
    """(header dict, data-region start) of a flat compiled artifact."""
    prefix = workspace._ARTIFACT_PREFIX
    header_end = prefix + int.from_bytes(blob[prefix - 8:prefix], "little")
    header = json.loads(blob[prefix:header_end])
    return header, header_end + (-header_end % workspace._ARTIFACT_ALIGN)


def write_artifact(path, header, data: bytes) -> None:
    """Write ``header`` and ``data`` as a flat compiled artifact.

    The ``payload_sha`` is recomputed, so the file passes the checksum
    and only the header's own validation stands between it and a load.
    """
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    header_end = workspace._ARTIFACT_PREFIX + len(raw)
    body = (
        len(raw).to_bytes(8, "little")
        + raw
        + bytes(-header_end % workspace._ARTIFACT_ALIGN)
        + data
    )
    digest = hashlib.sha256(body).hexdigest().encode("ascii")
    path.write_bytes(workspace._ARTIFACT_MAGIC + digest + body)


def corpus_cases():
    """Problem builders, as pytest params: the case study, then the
    first 8 cases of every genreg preset except stress-10k."""
    from repro.core import genreg

    yield pytest.param(multimedia_problem, id="case-study")
    for name in sorted(genreg.PRESETS):
        if name == "stress-10k":
            continue
        for index in range(8):
            yield pytest.param(
                lambda n=name, i=index: genreg.generate_problem(
                    genreg.PRESETS[n], i
                ),
                id=f"{name}-{index}",
            )

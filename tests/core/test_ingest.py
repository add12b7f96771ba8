"""The single-pass workspace ingest and the hashes it must not move.

Stored registry indexes and compiled artifacts are keyed by
``source_sha``, ``content_hash`` and ``component_json``, so
:func:`repro.core.workspace.ingest` must reproduce the separate helpers
bit for bit, and any change to the ``to_dict`` canonicalisation must
fail here loudly instead of silently orphaning every stored key.
"""

import hashlib
import json

import pytest

from repro.core import workspace

from ..conftest import corpus_cases

CASES = list(corpus_cases())

#: sha256 over every case's ``id``, ``source_sha``, ``content_hash`` and
#: ``component_json`` (one line each, case order).  Changing it means
#: every existing index row and artifact misses.
GOLDEN_DIGEST = (
    "6101853db9bebf1909b1d2120932477e076b1e17f04bf999fc9ae8001b0d98ab"
)


def _saved(tmp_path, case):
    path = tmp_path / f"{case.id}.json"
    workspace.save(case.values[0](), path)
    return path


@pytest.mark.parametrize("build", CASES)
def test_ingest_matches_the_separate_helpers(tmp_path, build):
    path = tmp_path / "ws.json"
    workspace.save(build(), path)
    ingested = workspace.ingest(path)
    parsed = workspace.load(path)
    assert ingested.source_sha == workspace._file_sha256(path)
    assert ingested.content_hash == workspace.content_hash(parsed)
    assert ingested.component_json == workspace.component_json(parsed)
    assert ingested.components == workspace.component_hashes(parsed)
    assert workspace.to_dict(ingested.problem) == workspace.to_dict(parsed)
    identity = ingested.identity
    assert (identity.n_alternatives, identity.n_attributes) == (
        len(parsed.alternative_names),
        len(parsed.attribute_names),
    )


def test_golden_digest(tmp_path):
    lines = []
    for case in CASES:
        ingested = workspace.ingest(_saved(tmp_path, case))
        lines += [
            case.id,
            ingested.source_sha,
            ingested.content_hash,
            ingested.component_json,
        ]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIGEST


def test_supplied_source_is_not_reread(tmp_path, small_problem):
    path = tmp_path / "ws.json"
    workspace.save(small_problem, path)
    source = workspace._read_source(path)
    path.unlink()  # any second read would now fail
    ingested = workspace.ingest(path, source)
    assert ingested.source_sha == source[1]
    assert ingested.content_hash == workspace.content_hash(small_problem)


def test_unreadable_and_invalid_files_raise(tmp_path):
    with pytest.raises(OSError):
        workspace.ingest(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ValueError):
        workspace.ingest(bad)
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "something-else/9"}))
    with pytest.raises(ValueError):
        workspace.ingest(foreign)


def test_compile_returns_the_ingested_identity(tmp_path, small_problem):
    path = tmp_path / "ws.json"
    workspace.save(small_problem, path)
    cold, cold_identity = workspace.load_compiled_with_identity(path)
    warm, warm_identity = workspace.load_compiled_with_identity(path)
    # the second load mmaps the artifact the first one wrote; its header
    # records the same identity the ingest derived
    assert warm_identity == cold_identity
    assert cold_identity == workspace.ingest(path).identity
    assert warm.n_alternatives == cold.n_alternatives

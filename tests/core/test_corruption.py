"""Corruption fixtures: damaged artifacts never damage results.

Each test physically corrupts one persistence layer — the compiled
artifact, the sqlite registry index, the workspace JSON
itself — and asserts the recovery contract: the runtime falls back,
rebuilds, and the final evaluated results are bit-identical to a run
that never saw the damage.
"""

import json

import pytest

from repro.core import workspace
from repro.core.faults import corrupt_sqlite
from repro.core.index import RegistryIndex
from repro.core.runtime import BatchOptions, ShardedRunner

from ..conftest import artifact_layout, make_small_problem


@pytest.fixture
def registry(tmp_path):
    paths = []
    for i in range(3):
        problem = make_small_problem(
            missing_cell=(i % 2 == 0), name=f"ws-{i:02d}"
        )
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(problem, path)
        paths.append(path)
    return paths


def run_batch(paths, index=None):
    return ShardedRunner(workers=1, options=BatchOptions()).run(
        paths, index=index
    )


class TestCorruptNpzArtifacts:
    def warm_artifact(self, path):
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        assert npz.exists()
        return npz

    def test_truncated_npz_recompiles_identically(self, registry):
        clean = run_batch(registry)
        npz = self.warm_artifact(registry[0])
        blob = npz.read_bytes()
        npz.write_bytes(blob[: len(blob) // 2])

        # the damaged artifact is rejected outright ...
        assert workspace.load_compiled_arrays(npz) is None
        # ... the loader recompiles from JSON and rewrites it ...
        compiled = workspace.load_compiled_fast(registry[0])
        assert compiled.u_avg.shape == (
            len(compiled.alternative_names),
            len(compiled.attribute_names),
        )
        assert workspace.load_compiled_arrays(npz) is not None
        # ... and a batch over the registry is bit-identical.
        assert run_batch(registry).results == clean.results

    def test_garbage_npz_bytes_recompile_identically(self, registry):
        clean = run_batch(registry)
        npz = self.warm_artifact(registry[1])
        npz.write_bytes(b"this is not a zip archive at all")
        assert workspace.load_compiled_arrays(npz) is None
        assert run_batch(registry).results == clean.results
        assert workspace.load_compiled_arrays(npz) is not None

    def test_tampered_array_data_fails_checksum(self, registry):
        # Flip one byte of a utility inside the data region and leave
        # the stored payload_sha stale — silent bit-rot that a zero-copy
        # mmap read cannot see on its own.  The payload checksum must
        # turn it into an ordinary cache miss.
        clean = run_batch(registry)
        npz = self.warm_artifact(registry[2])
        blob = bytearray(npz.read_bytes())
        header, data_start = artifact_layout(bytes(blob))
        _, _, offset = header["arrays"]["u_avg"]
        blob[data_start + offset] ^= 0xFF
        npz.write_bytes(bytes(blob))
        assert workspace.load_compiled_arrays(npz) is None
        assert run_batch(registry).results == clean.results
        assert workspace.load_compiled_arrays(npz) is not None


class TestCorruptSqliteIndex:
    def test_zeroed_header_rebuilds_on_open(self, registry, tmp_path):
        db_path = tmp_path / "idx.sqlite"
        with RegistryIndex(db_path) as index:
            clean = run_batch(registry, index=index)
        corrupt_sqlite(db_path)

        with RegistryIndex(db_path) as index:
            status = index.status()
            assert status["last_rebuild_ns"] is not None
            assert run_batch(registry, index=index).results == clean.results
        # the damaged database is kept aside for forensics
        assert db_path.with_name(db_path.name + ".corrupt").exists()

    def test_doctor_reports_healthy_index(self, registry, tmp_path):
        with RegistryIndex(tmp_path / "idx.sqlite") as index:
            run_batch(registry, index=index)
            report = index.doctor(registry)
        assert report["integrity_ok"] is True
        assert report["rebuilt"] is False


class TestTornWorkspaceJson:
    def test_torn_json_is_skipped_then_recovers(self, registry):
        clean = run_batch(registry)
        original = registry[0].read_text()
        registry[0].write_text(original[: len(original) // 2])
        # the torn .npz-freshness check must not mask the parse error
        workspace.compiled_array_path(registry[0]).unlink(missing_ok=True)

        torn = run_batch(registry)
        assert [s.path for s in torn.skipped] == [str(registry[0])]
        assert len(torn.results) == len(registry) - 1
        assert torn.results == tuple(
            r for r in clean.results if r.path != str(registry[0])
        )

        registry[0].write_text(original)
        healed = run_batch(registry)
        assert healed.results == clean.results and not healed.skipped

    def test_invalid_schema_is_skipped_with_reason(self, registry):
        registry[1].write_text(json.dumps({"not": "a workspace"}))
        workspace.compiled_array_path(registry[1]).unlink(missing_ok=True)
        report = run_batch(registry)
        assert len(report.skipped) == 1
        assert report.skipped[0].path == str(registry[1])
        assert report.skipped[0].error

"""Tests for the persisted compiled-artifact cache.

Covers round-trip equality with JSON-compiled arrays, stale-hash
invalidation, header validation, the upgrade from old zip artifacts,
byte-level determinism and concurrent-writer safety.
"""

import hashlib
import json
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import workspace
from repro.core.engine import BatchEvaluator, CompiledProblem, compile_problem

from ..conftest import (
    artifact_layout,
    corpus_cases,
    make_small_problem,
    write_artifact,
)

ARRAY_FIELDS = workspace._ARRAY_FIELDS


@pytest.fixture()
def saved_workspace(tmp_path):
    problem = make_small_problem(missing_cell=True)
    path = tmp_path / "ws.json"
    workspace.save(problem, path)
    return problem, path


class TestRoundTrip:
    def test_arrays_equal_json_compile(self, saved_workspace):
        problem, path = saved_workspace
        cold = workspace.load_compiled_fast(path)  # compiles, writes npz
        warm = workspace.load_compiled_fast(path)  # loads npz
        reference = compile_problem(problem)
        for loaded in (cold, warm):
            for field in ARRAY_FIELDS:
                assert np.array_equal(
                    getattr(loaded, field), getattr(reference, field)
                ), field
            assert loaded.name == reference.name
            assert loaded.alternative_names == reference.alternative_names
            assert loaded.attribute_names == reference.attribute_names

    def test_artifact_sits_next_to_json(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        assert npz == path.with_suffix(".npz")
        assert npz.is_file()

    def test_fast_path_skips_object_graph(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        warm = workspace.load_compiled_fast(path)
        assert warm.problem is None  # no JSON parse happened
        assert isinstance(warm, CompiledProblem)

    def test_loaded_form_evaluates_identically(self, saved_workspace):
        problem, path = saved_workspace
        workspace.load_compiled_fast(path)
        warm = workspace.load_compiled_fast(path)
        reference = compile_problem(problem)
        ranks_a, _ = BatchEvaluator(warm).monte_carlo_ranks(
            n_simulations=128, seed=13, sample_utilities="missing"
        )
        ranks_b, _ = BatchEvaluator(reference).monte_carlo_ranks(
            n_simulations=128, seed=13, sample_utilities="missing"
        )
        assert np.array_equal(ranks_a, ranks_b)


class TestStaleHashInvalidation:
    def test_changed_json_recompiles_and_rewrites(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        data = json.loads(path.read_text())
        data["name"] = "renamed"
        path.write_text(json.dumps(data, indent=2, sort_keys=True))
        reloaded = workspace.load_compiled_fast(path)
        assert reloaded.name == "renamed"
        arrays = workspace.load_compiled_arrays(
            workspace.compiled_array_path(path)
        )
        assert str(arrays["problem_name"]) == "renamed"
        assert str(arrays["source_sha"]) == workspace._file_sha256(path)

    def test_cosmetic_reformat_invalidates_by_bytes(self, saved_workspace):
        """A reformatted file re-keys the artifact (raw-byte freshness),
        but the recompiled arrays stay semantically identical."""
        problem, path = saved_workspace
        workspace.load_compiled_fast(path)
        before = workspace.load_compiled_arrays(
            workspace.compiled_array_path(path)
        )
        path.write_text(json.dumps(json.loads(path.read_text())))  # re-dump
        after_compiled = workspace.load_compiled_fast(path)
        after = workspace.load_compiled_arrays(
            workspace.compiled_array_path(path)
        )
        assert str(before["source_sha"]) != str(after["source_sha"])
        assert str(before["content_hash"]) == str(after["content_hash"])
        reference = compile_problem(problem)
        for field in ARRAY_FIELDS:
            assert np.array_equal(
                getattr(after_compiled, field), getattr(reference, field)
            )

    def test_corrupt_artifact_falls_back_to_json(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        npz.write_bytes(b"not a zip archive at all")
        compiled = workspace.load_compiled_fast(path)
        assert compiled.n_alternatives == 3
        # and the artifact was healed
        assert workspace.load_compiled_arrays(npz) is not None

    def test_corrupt_member_offset_is_cache_miss(self, saved_workspace):
        """A checksummed header whose array offset points past EOF
        (a writer bug, not bit-rot) must read as a miss, not raise."""
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        blob = npz.read_bytes()
        header, data_start = artifact_layout(blob)
        header["arrays"]["u_low"][2] = len(blob)
        write_artifact(npz, header, blob[data_start:])
        assert workspace.load_compiled_arrays(npz) is None
        compiled = workspace.load_compiled_fast(path)  # heals via JSON
        assert compiled.n_alternatives == 3
        assert workspace.load_compiled_arrays(npz) is not None

    def test_missing_artifact_returns_none(self, tmp_path):
        assert workspace.load_compiled_arrays(tmp_path / "nope.npz") is None

    def test_wrong_format_returns_none(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        blob = npz.read_bytes()
        header, data_start = artifact_layout(blob)
        header["format"] = "some-other-format/9"
        write_artifact(npz, header, blob[data_start:])
        assert npz.read_bytes()[:8] == workspace._ARTIFACT_MAGIC
        assert workspace.load_compiled_arrays(npz) is None


class TestWarmCache:
    def test_warms_only_stale_entries(self, tmp_path):
        # `repro index build` warms artifacts through RegistryIndex.build
        from repro.core.index import RegistryIndex

        paths = []
        for i in range(3):
            path = tmp_path / f"ws{i}.json"
            workspace.save(make_small_problem(name=f"p{i}"), path)
            paths.append(path)

        def artifacts():
            return [
                workspace.compiled_array_path(p).stat().st_mtime_ns
                for p in paths
            ]

        with RegistryIndex(tmp_path / "index.sqlite") as index:
            assert index.build(paths)["new"] == 3
            warmed = artifacts()
            index.build(paths)
            assert artifacts() == warmed  # all fresh: nothing rewritten
            data = json.loads(paths[1].read_text())
            data["name"] = "poked"
            paths[1].write_text(json.dumps(data, sort_keys=True))
            assert index.build(paths)["changed"] == 1
        rewarmed = artifacts()
        assert [a == b for a, b in zip(warmed, rewarmed)] == [
            True,
            False,
            True,
        ]
        arrays = workspace.load_compiled_arrays(
            workspace.compiled_array_path(paths[1])
        )
        assert arrays["problem_name"] == "poked"


def _failing_write(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def _write_errors() -> float:
    from repro.obs import metrics

    return metrics.registry().counter(
        "repro_artifact_write_errors_total", ""
    ).value()


class TestFailedWrite:
    """A failed artifact write is a cache miss, not a failed workspace.

    Root ignores ``chmod``, so a read-only registry is simulated by
    making every artifact write raise ``PermissionError``.
    """

    @pytest.fixture()
    def failing_writes(self, monkeypatch):
        monkeypatch.setattr(workspace, "save_compiled_arrays", _failing_write)

    @pytest.fixture()
    def registry(self, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"ws-{i:02d}.json"
            workspace.save(
                make_small_problem(missing_cell=i % 2 == 0, name=f"ws-{i}"),
                path,
            )
            paths.append(path)
        return paths

    def test_failed_write_leaves_no_artifact(
        self, saved_workspace, failing_writes
    ):
        problem, path = saved_workspace
        before = _write_errors()
        compiled = workspace.load_compiled_fast(path)
        assert np.array_equal(compiled.u_avg, compile_problem(problem).u_avg)
        assert not workspace.compiled_array_path(path).exists()
        assert _write_errors() == before + 1

    def test_cold_run_equals_clean_run(
        self, tmp_path, registry, monkeypatch
    ):
        from repro.core.index import RegistryIndex
        from repro.core.runtime import BatchOptions, ShardedRunner

        runner = ShardedRunner(
            workers=1, options=BatchOptions(simulations=40, seed=3)
        )
        clean = runner.run(registry)
        for path in registry:
            workspace.compiled_array_path(path).unlink()
        monkeypatch.setattr(workspace, "save_compiled_arrays", _failing_write)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            report = runner.run(registry, index=index)
        assert report.skipped == ()
        assert report.results == clean.results
        assert not any(
            workspace.compiled_array_path(p).exists() for p in registry
        )

    def test_delta_edit_after_failed_write(
        self, tmp_path, registry, monkeypatch
    ):
        from repro.core.index import RegistryIndex
        from repro.core.runtime import BatchOptions, ShardedRunner

        runner = ShardedRunner(workers=1, options=BatchOptions())
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(registry, index=index)  # artifacts + index rows
            data = json.loads(registry[0].read_text())
            rows = data["alternatives"]
            rows[0]["performances"], rows[1]["performances"] = (
                rows[1]["performances"],
                rows[0]["performances"],
            )
            registry[0].write_text(json.dumps(data, sort_keys=True))
            monkeypatch.setattr(
                workspace, "save_compiled_arrays", _failing_write
            )
            edited = runner.run(registry, index=index)
            monkeypatch.undo()
            reference = runner.run(registry, index=index, refresh=True)
        assert edited.n_delta in (0, 1)
        assert edited.skipped == ()
        assert edited.results == reference.results

    def test_index_build_keeps_row_without_artifact(
        self, tmp_path, registry, failing_writes
    ):
        from repro.core.index import RegistryIndex

        with RegistryIndex(tmp_path / "index.sqlite") as index:
            assert index.build(registry)["error"] == 0
            rows = [index.lookup_workspace(p) for p in registry]
        assert all(row.npz_source_sha is None for row in rows)

    @pytest.mark.parametrize("extra", [[], ["--workers", "1"]])
    def test_repro_batch_exits_zero(self, tmp_path, capsys, extra):
        from repro.cli import main
        from repro.core import genreg

        spec = genreg.preset("default", seed=0, n_workspaces=6)
        clean_dir, failing_dir = tmp_path / "clean", tmp_path / "ro"
        genreg.write_registry(spec, clean_dir)
        genreg.write_registry(spec, failing_dir)
        assert main(["batch", *extra, str(clean_dir)]) == 0
        clean = capsys.readouterr().out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(workspace, "save_compiled_arrays", _failing_write)
            assert main(["batch", *extra, str(failing_dir)]) == 0
        out = capsys.readouterr().out
        assert "skipped" not in out
        assert out == clean


class TestConcurrentWriters:
    def test_parallel_writers_leave_valid_artifact(self, saved_workspace):
        problem, path = saved_workspace
        compiled = compile_problem(problem)
        npz = workspace.compiled_array_path(path)
        sha = workspace._file_sha256(path)
        semantic = workspace.content_hash(problem)

        def write(_):
            workspace.save_compiled_arrays(compiled, npz, sha, semantic)
            return workspace.load_compiled_arrays(npz) is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(write, range(32)))
        assert all(outcomes)
        final = workspace.load_compiled_arrays(npz)
        assert str(final["source_sha"]) == sha
        for field in ARRAY_FIELDS:
            assert np.array_equal(final[field], getattr(compiled, field))
        # no temp files left behind
        leftovers = [
            p for p in path.parent.iterdir() if ".tmp." in p.name
        ]
        assert leftovers == []

    def test_failed_write_unlinks_its_temp_file(
        self, saved_workspace, monkeypatch
    ):
        """A writer that dies mid-publish must not orphan its temp
        sibling next to the artifact."""
        import os

        problem, path = saved_workspace
        compiled = compile_problem(problem)
        npz = workspace.compiled_array_path(path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            workspace.save_compiled_arrays(
                compiled,
                npz,
                workspace._file_sha256(path),
                workspace.content_hash(problem),
            )
        leftovers = [p for p in path.parent.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_sweep_temp_artifacts_removes_only_strays(self, saved_workspace):
        problem, path = saved_workspace
        npz = workspace.compiled_array_path(path)
        workspace.save_compiled_arrays(
            compile_problem(problem),
            npz,
            workspace._file_sha256(path),
            workspace.content_hash(problem),
        )
        stray = path.parent / ".ws.npz.tmp.999.ff"
        stray.write_bytes(b"partial")
        removed = workspace.sweep_temp_artifacts(path.parent)
        assert removed == 1
        assert not stray.exists()
        assert npz.exists()

    def test_parallel_load_compiled_fast(self, saved_workspace):
        """Racing readers/writers on a cold cache all get valid forms."""
        problem, path = saved_workspace
        reference = compile_problem(problem)

        def load(_):
            return workspace.load_compiled_fast(path)

        with ThreadPoolExecutor(max_workers=8) as pool:
            forms = list(pool.map(load, range(16)))
        for form in forms:
            for field in ARRAY_FIELDS:
                assert np.array_equal(
                    getattr(form, field), getattr(reference, field)
                )


def _set_array(field, slot, value):
    def mutate(header):
        header["arrays"][field][slot] = value
        return header

    return mutate


def _drop(*keys):
    def mutate(header):
        target = header
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
        return header

    return mutate


#: Header defects that survive the checksum (a writer bug or a crafted
#: file, not bit-rot).  Each must read as a miss, never raise.
HEADER_DEFECTS = {
    "object-dtype": _set_array("u_avg", 0, "|O"),
    "float32-dtype": _set_array("u_avg", 0, "<f4"),
    "big-endian-dtype": _set_array("u_avg", 0, ">f8"),
    "negative-dim": _set_array("u_avg", 1, [-1]),
    "two-negative-dims": _set_array("u_avg", 1, [-1, -1]),
    "bool-dim": _set_array("w_avg", 1, [True]),
    "fractional-dim": _set_array("w_avg", 1, [1.5]),
    "string-dim": _set_array("w_avg", 1, ["3"]),
    "shape-not-a-list": _set_array("w_avg", 1, "3"),
    "negative-offset": _set_array("u_up", 2, -64),
    "fractional-offset": _set_array("u_up", 2, 0.5),
    "extent-past-eof": _set_array("key_count", 1, [1 << 20]),
    "missing-array-field": _drop("arrays", "alt_key"),
    "missing-metadata": _drop("source_sha"),
    "not-an-object": lambda header: [header],
}


class TestHeaderValidation:
    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    def test_checksummed_defect_is_a_miss_and_heals(
        self, saved_workspace, defect
    ):
        problem, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        clean = npz.read_bytes()
        header, data_start = artifact_layout(clean)
        write_artifact(npz, HEADER_DEFECTS[defect](header), clean[data_start:])
        assert npz.read_bytes() != clean

        assert workspace.load_compiled_arrays(npz) is None
        compiled = workspace.load_compiled_fast(path)
        assert compiled.problem is not None  # recompiled from JSON
        reference = compile_problem(problem)
        for field in ARRAY_FIELDS:
            assert np.array_equal(
                getattr(compiled, field), getattr(reference, field)
            ), field
        assert npz.read_bytes() == clean  # rewritten in place

    def test_write_artifact_helper_mirrors_the_writer(self, saved_workspace):
        _, path = saved_workspace
        workspace.load_compiled_fast(path)
        npz = workspace.compiled_array_path(path)
        clean = npz.read_bytes()
        header, data_start = artifact_layout(clean)
        write_artifact(npz, header, clean[data_start:])
        assert npz.read_bytes() == clean


def _zip_format_checksum(payload):
    """The ``repro-compiled/2`` payload checksum, as the zip writer did it."""
    digest = hashlib.sha256()
    for field in (
        *ARRAY_FIELDS,
        "problem_name",
        "attribute_names",
        "alternative_names",
        "source_sha",
        "content_hash",
    ):
        arr = np.ascontiguousarray(payload[field])
        digest.update(field.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def write_zip_artifact(path):
    """Write a workspace's artifact in the old ``repro-compiled/2`` zip
    layout: every ``np.savez`` member the zip writer produced."""
    problem = workspace.load(path)
    compiled = compile_problem(problem)
    payload = {
        field: np.ascontiguousarray(getattr(compiled, field))
        for field in ARRAY_FIELDS
    }
    payload["alt_key"] = payload["alt_key"].astype(np.int64)
    payload["key_count"] = payload["key_count"].astype(np.int64)
    payload["problem_name"] = np.array(compiled.name)
    payload["attribute_names"] = np.array(compiled.attribute_names)
    payload["alternative_names"] = np.array(compiled.alternative_names)
    payload["format"] = np.array("repro-compiled/2")
    payload["source_sha"] = np.array(workspace._file_sha256(path))
    payload["content_hash"] = np.array(workspace.content_hash(problem))
    payload["component_json"] = np.array(workspace.component_json(problem))
    payload["payload_sha"] = np.array(_zip_format_checksum(payload))
    npz = workspace.compiled_array_path(path)
    with open(npz, "wb") as fh:
        np.savez(fh, **payload)
    return npz


class TestUpgradeFromZip:
    def test_zip_artifact_is_recompiled_and_rewritten(self, saved_workspace):
        problem, path = saved_workspace
        npz = write_zip_artifact(path)
        assert zipfile.is_zipfile(npz)
        assert workspace.load_compiled_arrays(npz) is None

        compiled = workspace.load_compiled_fast(path)
        assert compiled.problem is not None  # recompiled from JSON
        arrays = workspace.load_compiled_arrays(npz)
        assert arrays["format"] == "repro-compiled/3"
        assert npz.read_bytes()[:8] == workspace._ARTIFACT_MAGIC
        reference = compile_problem(problem)
        for field in ARRAY_FIELDS:
            assert np.array_equal(arrays[field], getattr(reference, field))
        assert sorted(p.name for p in path.parent.iterdir()) == [
            "ws.json",
            "ws.npz",
        ]

    def test_batch_over_zip_registry_matches_clean_run(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core import genreg

        registry = tmp_path / "registry"
        paths = genreg.write_registry(
            genreg.preset("default", seed=0, n_workspaces=6), registry
        )
        argv = ["batch", "--workers", "1", "--no-cache", str(registry)]
        assert main(argv) == 0
        clean = capsys.readouterr().out

        for path in paths:
            write_zip_artifact(path)
        assert main(argv) == 0
        assert capsys.readouterr().out == clean
        for path in paths:
            arrays = workspace.load_compiled_arrays(
                workspace.compiled_array_path(path)
            )
            assert arrays["format"] == "repro-compiled/3"
        assert main(argv) == 0  # and the upgraded artifacts serve warm
        assert capsys.readouterr().out == clean


class TestDeterminism:
    def test_equal_content_writes_identical_bytes(self, saved_workspace):
        problem, path = saved_workspace
        sha = workspace._file_sha256(path)
        semantic = workspace.content_hash(problem)
        components = workspace.component_json(problem)
        blobs = []
        for name in ("a.npz", "b.npz"):
            target = path.parent / name
            workspace.save_compiled_arrays(
                compile_problem(problem), target, sha, semantic, components
            )
            blobs.append(target.read_bytes())
        # a form rebuilt from the artifact's own views writes it back
        loaded = workspace._compiled_from_arrays(
            workspace.load_compiled_arrays(path.parent / "a.npz")
        )
        target = path.parent / "c.npz"
        workspace.save_compiled_arrays(
            loaded, target, sha, semantic, components
        )
        blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("build", list(corpus_cases()))
    def test_round_trip_matches_compile(self, tmp_path, build):
        reference = compile_problem(build())
        npz = tmp_path / "ws.npz"
        workspace.save_compiled_arrays(reference, npz, "0" * 64, "1" * 64)
        first = npz.read_bytes()
        workspace.save_compiled_arrays(
            compile_problem(build()), npz, "0" * 64, "1" * 64
        )
        assert npz.read_bytes() == first
        arrays = workspace.load_compiled_arrays(npz)
        for field in ARRAY_FIELDS:
            expected = getattr(reference, field)
            assert arrays[field].dtype == expected.dtype, field
            assert arrays[field].shape == expected.shape, field
            assert np.array_equal(arrays[field], expected), field
        assert arrays["problem_name"] == reference.name
        assert arrays["attribute_names"] == list(reference.attribute_names)
        assert arrays["alternative_names"] == list(
            reference.alternative_names
        )

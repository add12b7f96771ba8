"""Tests for the persistent registry index (cross-run result caching)."""

import json
import os
import sqlite3
from dataclasses import replace as dc_replace

import pytest

from repro.core import workspace
from repro.core.index import (
    RECORDING_WINDOW_NS,
    CachedResult,
    RegistryIndex,
    default_index_path,
    eval_config_hash,
)
from repro.core.runtime import BatchOptions, ShardedRunner

from ..conftest import make_small_problem


def write_registry(tmp_path, n=6):
    paths = []
    for i in range(n):
        problem = make_small_problem(
            missing_cell=(i % 2 == 0), name=f"ws-{i:02d}"
        )
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(problem, path)
        paths.append(path)
    return paths


def mutate(path):
    """Semantically edit a workspace JSON (changes the content hash)."""
    data = json.loads(path.read_text())
    data["name"] = data["name"] + "-edited"
    path.write_text(json.dumps(data, indent=2, sort_keys=True))


@pytest.fixture
def index(tmp_path):
    with RegistryIndex(tmp_path / "index.sqlite") as idx:
        yield idx


class TestEvalConfigHash:
    def test_stable_for_equal_options(self):
        a = BatchOptions(simulations=100, method="intervals", seed=3)
        b = BatchOptions(simulations=100, method="intervals", seed=3)
        assert eval_config_hash(a) == eval_config_hash(b)

    def test_transport_knobs_do_not_matter(self):
        a = BatchOptions(use_disk_cache=True)
        b = BatchOptions(use_disk_cache=False)
        assert eval_config_hash(a) == eval_config_hash(b)

    def test_seed_and_method_ignored_without_simulations(self):
        a = BatchOptions(simulations=0, seed=1, method="random")
        b = BatchOptions(simulations=0, seed=2, method="intervals")
        assert eval_config_hash(a) == eval_config_hash(b)

    def test_result_shaping_fields_matter(self):
        base = BatchOptions()
        assert eval_config_hash(base) != eval_config_hash(
            BatchOptions(objectives=True)
        )
        assert eval_config_hash(
            BatchOptions(simulations=100, seed=1)
        ) != eval_config_hash(BatchOptions(simulations=100, seed=2))


class TestProbe:
    def test_new_file_is_fingerprinted(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        record = index.probe(path)
        assert record is not None
        assert record.path == os.path.abspath(str(path))
        assert record.content_hash == workspace.content_hash(
            workspace.load(path)
        )
        assert (record.n_alternatives, record.n_attributes) == (3, 3)

    def test_probe_is_read_only(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        index.probe(path)
        assert index.status()["n_workspaces"] == 0

    def test_stat_fast_path_trusts_stored_hashes(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        record = index.probe(path)
        index.record_run([record], {}, "cfg")
        again, status = index._probe(path)
        assert status == "fresh"
        assert again == record

    def test_touch_keeps_content_hash(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        record = index.probe(path)
        index.record_run([record], {}, "cfg")
        os.utime(path, ns=(record.mtime_ns + 10**9, record.mtime_ns + 10**9))
        again, status = index._probe(path)
        assert status == "touched"
        assert again.content_hash == record.content_hash
        assert again.mtime_ns != record.mtime_ns

    def test_edit_changes_content_hash(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        record = index.probe(path)
        index.record_run([record], {}, "cfg")
        mutate(path)
        again, status = index._probe(path)
        assert status == "changed"
        assert again.content_hash != record.content_hash

    def test_missing_or_corrupt_file_probes_none(self, tmp_path, index):
        assert index.probe(tmp_path / "nope.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert index.probe(bad) is None

    def test_fresh_npz_supplies_hash_without_parsing(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        workspace.load_compiled_fast(path)  # persists the .npz sibling
        record = index.probe(path)
        assert record.npz_source_sha == record.source_sha
        assert record.content_hash == workspace.content_hash(
            workspace.load(path)
        )

    def test_warm_artifact_persists_npz(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        npz = workspace.compiled_array_path(path)
        assert not npz.exists()
        record = index.probe(path, warm_artifact=True)
        assert npz.exists()
        assert record.npz_source_sha == record.source_sha


class TestResultCache:
    def test_round_trip_is_exact(self, index):
        rows = (
            CachedResult(
                sub_index=0,
                name="ws",
                n_alternatives=3,
                n_attributes=3,
                best_name="alt",
                best_minimum=0.12345678901234567,
                best_average=2.0 / 3.0,
                best_maximum=1.0 - 2.0**-52,
                ever_best=2,
                top5_fluctuation=1,
            ),
            CachedResult(
                sub_index=1,
                name="ws:cost",
                n_alternatives=3,
                n_attributes=1,
                best_name="other",
                best_minimum=0.0,
                best_average=0.5,
                best_maximum=1.0,
            ),
        )
        index.record_run([], {"hash": rows}, "cfg")
        assert index.lookup_results("hash", "cfg") == rows

    def test_lookup_misses(self, index):
        assert index.lookup_results("nope", "cfg") is None

    def test_config_hash_partitions_results(self, index):
        row = CachedResult(0, "ws", 3, 3, "a", 0.0, 0.5, 1.0)
        index.record_run([], {"hash": (row,)}, "cfg-a")
        assert index.lookup_results("hash", "cfg-b") is None

    def test_record_run_replaces_row_set(self, index):
        old = CachedResult(0, "ws", 3, 3, "a", 0.0, 0.5, 1.0)
        new = CachedResult(0, "ws", 3, 3, "b", 0.1, 0.6, 0.9)
        index.record_run([], {"hash": (old,)}, "cfg")
        index.record_run([], {"hash": (new,)}, "cfg")
        assert index.lookup_results("hash", "cfg") == (new,)

    def test_schema_version_guard(self, tmp_path):
        db = tmp_path / "index.sqlite"
        RegistryIndex(db).close()
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "UPDATE index_meta SET value = '999'"
                " WHERE key = 'schema_version'"
            )
        conn.close()
        with pytest.raises(ValueError, match="schema"):
            RegistryIndex(db)


class TestIndexedRuns:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        paths = write_registry(tmp_path, n=6)
        runner = ShardedRunner(
            workers=1, options=BatchOptions(simulations=100, seed=7)
        )
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(paths, index=index)
            warm = runner.run(paths, index=index)
        assert cold.n_cached == 0
        assert warm.n_cached == 6
        assert warm.results == cold.results
        assert warm.skipped == cold.skipped

    def test_cached_results_match_uncached_run(self, tmp_path):
        paths = write_registry(tmp_path, n=4)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            warm = runner.run(paths, index=index)
        plain = runner.run(paths)
        assert warm.results == plain.results

    def test_mutating_one_workspace_reevaluates_only_it(self, tmp_path):
        paths = write_registry(tmp_path, n=5)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(paths, index=index)
            mutate(paths[2])
            after = runner.run(paths, index=index)
        assert after.n_cached == 4
        assert after.results[2].name == "ws-02-edited"
        for i in (0, 1, 3, 4):
            assert after.results[i] == cold.results[i]

    def test_refresh_reevaluates_but_matches(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(paths, index=index)
            refreshed = runner.run(paths, index=index, refresh=True)
            warm = runner.run(paths, index=index)
        assert refreshed.n_cached == 0
        assert refreshed.results == cold.results
        assert warm.n_cached == 3

    def test_objectives_rows_cache_as_a_complete_set(self, tmp_path):
        paths = write_registry(tmp_path, n=2)
        runner = ShardedRunner(workers=1, options=BatchOptions(objectives=True))
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(paths, index=index)
            warm = runner.run(paths, index=index)
        assert warm.n_cached == 2
        assert warm.results == cold.results
        assert [(r.index, r.sub_index) for r in warm.results] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_corrupt_workspace_skipped_never_cached(self, tmp_path):
        paths = write_registry(tmp_path, n=2)
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        registry = [paths[0], bad, paths[1]]
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(registry, index=index)
            warm = runner.run(registry, index=index)
        assert cold.skipped == warm.skipped
        assert len(warm.skipped) == 1
        assert warm.n_cached == 2

    def test_duplicate_paths_share_one_cache_entry(self, tmp_path):
        paths = write_registry(tmp_path, n=1)
        registry = [paths[0]] * 3
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(registry, index=index)
            warm = runner.run(registry, index=index)
            n_rows = index.status()["n_workspaces"]
        assert warm.n_cached == 3
        assert warm.results == cold.results
        assert n_rows == 1

    def test_mid_run_edit_is_not_recorded(self, tmp_path):
        """A workspace edited between probe and merge must not be cached.

        Workers re-read files at evaluation time, so recording the run
        would bind the *new* content's numbers to the *old* content
        hash.  Simulated by giving _persist_run a record whose stat
        fingerprint no longer matches the file.
        """
        from dataclasses import replace as dc_replace

        (path,) = write_registry(tmp_path, n=1)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            record = index.probe(path)
            stale = dc_replace(record, mtime_ns=record.mtime_ns - 1)
            report = runner.run([path])  # fresh results, no index
            runner._persist_run(
                index,
                "cfg",
                {str(path): stale},
                [(0, str(path))],
                list(report.results),
            )
            assert index.lookup_results(record.content_hash, "cfg") is None
            assert index.status()["n_workspaces"] == 0

    def test_multiworker_run_matches_single_worker_cache(self, tmp_path):
        paths = write_registry(tmp_path, n=8)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = ShardedRunner(workers=2).run(paths, index=index)
            warm = ShardedRunner(workers=1).run(paths, index=index)
        assert warm.n_cached == 8
        assert warm.results == cold.results


def strip_path(results):
    """Result rows without the registry file path."""
    return [dc_replace(r, path="") for r in results]


def drop_artifacts(paths):
    for path in paths:
        workspace.compiled_array_path(path).unlink(missing_ok=True)


def stored_rows(index, paths):
    return [index.lookup_workspace(path) for path in paths]


class TestDeferredIngest:
    """New, artifact-free workspaces skip the parent-side derive.

    Their fingerprint comes home from the worker that compiled them and
    is completed at the merge; these pin the edges of that path.
    """

    def test_copies_without_artifacts_are_served_from_cache(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = write_registry(tmp_path / "a", n=5)
        runner = ShardedRunner(
            workers=1, options=BatchOptions(simulations=50, seed=3)
        )
        copies = []
        for path in paths:
            target = tmp_path / "b" / f"copy-{path.name}"
            target.write_bytes(path.read_bytes())
            copies.append(target)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            original = runner.run(paths, index=index)
            assert not any(
                workspace.compiled_array_path(c).exists() for c in copies
            )
            copied = runner.run(copies, index=index)
            again = runner.run(copies, index=index)
            rows = stored_rows(index, copies)
        assert copied.n_cached == len(copies)
        assert strip_path(copied.results) == strip_path(original.results)
        assert [r.path for r in copied.results] == [str(c) for c in copies]
        # the copies' fingerprints were recorded at the merge
        assert all(row is not None for row in rows)
        assert again.n_cached == len(copies)
        assert again.results == copied.results

    def test_worker_kill_leaves_a_clean_report(self, tmp_path):
        from repro.core.faults import named_plan
        from repro.core.runtime import RetryPolicy, shard_registry

        paths = write_registry(tmp_path, n=8)
        keys = [
            f"chunk:{chunk[0]}:{chunk[-1]}"
            for chunk in shard_registry(len(paths), 2)
        ]
        seed = next(
            s
            for s in range(10_000)
            if any(
                named_plan("worker-kill", seed=s).decide("worker_kill", k)
                for k in keys
            )
        )
        clean = ShardedRunner(workers=2).run(paths)
        drop_artifacts(paths)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            faulty = ShardedRunner(
                workers=2,
                options=BatchOptions(faults=named_plan("worker-kill", seed)),
                retry=RetryPolicy(backoff_base=0.001),
            ).run(paths, index=index)
            rows = stored_rows(index, paths)
            warm = ShardedRunner(workers=2).run(paths, index=index)
        assert faulty.n_retried >= 1
        assert faulty.results == clean.results and not faulty.skipped
        assert all(row is not None for row in rows)
        assert warm.n_cached == len(paths) and warm.results == clean.results

    def test_never_completed_chunks_record_nothing(self, tmp_path):
        from repro.core.faults import FaultPlan, FaultRule
        from repro.core.runtime import RetryPolicy

        paths = write_registry(tmp_path, n=4)
        clean = ShardedRunner(workers=2).run(paths)
        drop_artifacts(paths)
        kill_all = FaultPlan("always-kill", 0, (FaultRule("worker_kill", 1.0),))
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            broken = ShardedRunner(
                workers=2,
                options=BatchOptions(faults=kill_all),
                retry=RetryPolicy(quarantine_after=2, backoff_base=0.001),
            ).run(paths, index=index)
            assert broken.n_quarantined == len(paths)
            assert index.status()["n_workspaces"] == 0
            assert stored_rows(index, paths) == [None] * len(paths)
            index.release_quarantine()
            retried = ShardedRunner(workers=2).run(paths, index=index)
            warm = ShardedRunner(workers=2).run(paths, index=index)
        assert retried.n_cached == 0 and retried.results == clean.results
        assert warm.n_cached == len(paths) and warm.results == clean.results

    @pytest.mark.parametrize("when", ["after_chunk", "before_persist"])
    def test_edit_after_dispatch_is_not_recorded(
        self, tmp_path, monkeypatch, when
    ):
        from repro.core import runtime

        paths = write_registry(tmp_path, n=3)
        before = workspace.content_hash(workspace.load(paths[1]))
        if when == "after_chunk":
            evaluate = runtime.evaluate_registry_chunk

            def edit_after(chunk, *args, **kwargs):
                outcome = evaluate(chunk, *args, **kwargs)
                if 1 in dict(chunk):  # once paths[1] has been evaluated
                    mutate(paths[1])
                return outcome

            monkeypatch.setattr(runtime, "evaluate_registry_chunk", edit_after)
        else:
            persist = ShardedRunner._persist_run

            def edit_before(*args):
                mutate(paths[1])
                return persist(*args)

            monkeypatch.setattr(
                ShardedRunner, "_persist_run", staticmethod(edit_before)
            )
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            cold = runner.run(paths, index=index)
            monkeypatch.undo()
            config = eval_config_hash(runner.options)
            assert cold.results[1].name == "ws-01"  # the bytes evaluated
            assert index.lookup_workspace(paths[1]) is None
            assert index.lookup_results(before, config) is None
            assert index.lookup_workspace(paths[0]) is not None
            after = runner.run(paths, index=index)
        assert after.n_cached == 2
        assert after.results[1].name == "ws-01-edited"

    def test_rows_match_across_worker_counts(self, tmp_path):
        paths = write_registry(tmp_path, n=8)
        rows = {}
        for workers in (1, 2):
            drop_artifacts(paths)
            db = tmp_path / f"index-{workers}.sqlite"
            with RegistryIndex(db) as index:
                ShardedRunner(workers=workers).run(paths, index=index)
                rows[workers] = stored_rows(index, paths)
        drop_artifacts(paths)
        with RegistryIndex(tmp_path / "probe.sqlite") as index:
            probed = [index.probe(path) for path in paths]
        # IndexedWorkspace equality ignores recorded_ns
        assert rows[1] == rows[2] == probed

    def test_each_cold_workspace_is_parsed_once(self, tmp_path, monkeypatch):
        paths = write_registry(tmp_path, n=4)
        calls = []
        real_load = workspace.load

        def counting_load(path, raw=None):
            calls.append(str(path))
            return real_load(path, raw)

        monkeypatch.setattr(workspace, "load", counting_load)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            assert sorted(calls) == sorted(str(p) for p in paths)
            # a row edit is ingested once by the probe and delta-patched
            # from that bundle; nothing parses it again
            calls.clear()
            data = json.loads(paths[2].read_text())
            alt = data["alternatives"][0]
            attr = sorted(alt["performances"])[0]
            alt["performances"][attr] = {"kind": "missing"}
            paths[2].write_text(json.dumps(data, indent=2, sort_keys=True))
            edited = runner.run(paths, index=index)
        assert edited.n_delta == 1
        assert calls == [str(paths[2])]


class TestStalenessRegression:
    """Edits that preserve the stat fingerprint must still be caught."""

    def _recorded(self, tmp_path, index):
        (path,) = write_registry(tmp_path, n=1)
        record = index.probe(path)
        index.record_run([record], {}, "cfg")
        return path, record

    def _rewrite_same_size(self, path):
        """A semantic edit that keeps the file's byte length."""
        text = path.read_text()
        assert "ws-00" in text
        path.write_text(text.replace("ws-00", "xs-00"))

    def test_mtime_preserving_rewrite_is_detected(self, tmp_path, index):
        """cp -p / git checkout shape: content replaced, mtime+size
        restored.  ctime still moves, so the probe must re-hash."""
        path, record = self._recorded(tmp_path, index)
        st_before = os.stat(path)
        self._rewrite_same_size(path)
        os.utime(path, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
        st_after = os.stat(path)
        assert st_after.st_mtime_ns == st_before.st_mtime_ns
        assert st_after.st_size == st_before.st_size
        fresh, status = index.probe_with_status(path)
        assert status == "changed"
        assert fresh.content_hash != record.content_hash

    def test_identical_stat_triple_caught_within_window(self, tmp_path, index):
        """Even a full stat-triple collision (two writes inside one
        filesystem timestamp tick) is caught while the row's recording
        window is open: the probe byte-verifies the source sha."""
        path, record = self._recorded(tmp_path, index)
        self._rewrite_same_size(path)
        st = os.stat(path)
        # Forge the collision: make the stored row's fingerprint match
        # the edited file exactly (userspace cannot do this to ctime,
        # so simulate it in the database).
        index._conn.execute(
            "UPDATE workspaces SET mtime_ns=?, size=?, ctime_ns=? "
            "WHERE path=?",
            (st.st_mtime_ns, st.st_size, st.st_ctime_ns, record.path),
        )
        index._conn.commit()
        fresh, status = index.probe_with_status(path)
        assert status == "changed"
        assert fresh.content_hash != record.content_hash

    def test_quiet_row_leaves_the_window(self, tmp_path, index, monkeypatch):
        """Once the recording time is far past the file's mtime, the
        pure stat fast path answers without reading the file."""
        path, record = self._recorded(tmp_path, index)
        index._conn.execute(
            "UPDATE workspaces SET recorded_ns = recorded_ns + ?",
            (10 * RECORDING_WINDOW_NS,),
        )
        index._conn.commit()
        reads = []
        real = workspace._file_sha256
        monkeypatch.setattr(
            workspace,
            "_file_sha256",
            lambda p: (reads.append(p), real(p))[1],
        )
        fresh, status = index.probe_with_status(path)
        assert status == "fresh"
        assert fresh == record
        assert reads == []
        assert not index.needs_restamp(index.lookup_workspace(path))


class TestMaintenance:
    def test_build_counts(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            first = index.build(paths)
            assert first == {
                "fresh": 0, "touched": 0, "changed": 0, "new": 3, "error": 0,
            }
            mutate(paths[0])
            second = index.build(paths)
            assert second["fresh"] == 2
            assert second["changed"] == 1

    def test_status_freshness_sweep(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            index.build(paths)
            mutate(paths[0])
            paths[1].unlink()
            info = index.status()
        assert info["n_workspaces"] == 3
        assert (info["fresh"], info["stale"], info["missing"]) == (1, 1, 1)

    def test_vacuum_drops_dead_rows(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            mutate(paths[0])  # orphans the old content's result row
            runner.run(paths, index=index)
            paths[1].unlink()
            removed = index.vacuum()
            info = index.status()
        assert removed["workspaces_removed"] == 1
        # the stale ws-00 content row and the deleted ws-01 row are gone
        assert removed["result_rows_removed"] == 2
        assert info["n_workspaces"] == 2
        assert info["n_result_rows"] == 2

    def test_vacuum_sweeps_stray_temp_artifacts(self, tmp_path):
        paths = write_registry(tmp_path, n=2)
        runner = ShardedRunner(workers=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            # a crashed writer's leftovers, in the registry directory
            stray = tmp_path / ".ws-00.npz.tmp.1234.ab"
            stray.write_bytes(b"partial")
            removed = index.vacuum()
        assert removed["temp_artifacts_removed"] == 1
        assert not stray.exists()

    def test_default_index_path_is_common_directory(self, tmp_path):
        a = tmp_path / "a" / "x.json"
        b = tmp_path / "b" / "y.json"
        assert default_index_path([a, b]) == tmp_path / ".repro-index.sqlite"
        assert (
            default_index_path([a])
            == tmp_path / "a" / ".repro-index.sqlite"
        )
        with pytest.raises(ValueError):
            default_index_path([])


class TestIndexCLI:
    def test_batch_warm_run_is_byte_identical(self, capsys, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=4)]
        argv = ["batch", "--workers", "1", *paths]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert (tmp_path / ".repro-index.sqlite").exists()

    def test_batch_no_cache_leaves_no_index(self, capsys, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=2)]
        assert main(["batch", "--workers", "1", "--no-cache", *paths]) == 0
        capsys.readouterr()
        assert not (tmp_path / ".repro-index.sqlite").exists()

    def test_batch_refresh_implies_registry_mode(self, capsys, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=2)]
        assert main(["batch", "--refresh", *paths]) == 0
        out = capsys.readouterr().out
        assert "evaluated 2 problem(s)" in out
        assert (tmp_path / ".repro-index.sqlite").exists()

    def test_batch_explicit_index_location(self, capsys, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=2)]
        db = tmp_path / "elsewhere.sqlite"
        assert main(["batch", "--index", str(db), *paths]) == 0
        capsys.readouterr()
        assert db.exists()
        assert not (tmp_path / ".repro-index.sqlite").exists()

    def test_index_build_status_vacuum(self, capsys, tmp_path):
        from repro.cli import main

        write_registry(tmp_path, n=3)
        assert main(["index", "build", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "indexed 3 workspace(s)" in out
        assert main(["index", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "workspaces : 3 (3 fresh" in out
        assert main(["index", "vacuum", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "vacuumed" in out

    def test_index_requires_directory(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["index", "build", str(tmp_path / "nope")])

    def test_status_on_unindexed_registry_creates_nothing(self, tmp_path):
        from repro.cli import main

        write_registry(tmp_path, n=1)
        for action in ("status", "vacuum"):
            with pytest.raises(SystemExit, match="no registry index"):
                main(["index", action, str(tmp_path)])
        assert not (tmp_path / ".repro-index.sqlite").exists()

    def test_registry_flags_require_workspaces(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["batch", "--refresh"])

    def test_no_cache_conflicts_with_refresh_and_index(self, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=1)]
        with pytest.raises(SystemExit, match="conflicts"):
            main(["batch", "--no-cache", "--refresh", *paths])
        with pytest.raises(SystemExit, match="conflicts"):
            main(["batch", "--no-cache", "--index", "x.sqlite", *paths])

    def test_unwritable_index_falls_back_to_uncached(
        self, capsys, tmp_path
    ):
        """Evaluation must survive an uncreatable index database."""
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=2)]
        db = tmp_path / "no" / "such" / "dir" / "index.sqlite"
        assert main(["batch", "--workers", "1", "--index", str(db), *paths]) == 0
        captured = capsys.readouterr()
        assert "evaluated 2 problem(s)" in captured.out
        assert "registry index unavailable" in captured.err
        # stdout matches a plain uncached run byte for byte
        assert main(["batch", "--workers", "1", "--no-cache", *paths]) == 0
        assert capsys.readouterr().out == captured.out

    def test_index_build_ignores_custom_json_database(self, capsys, tmp_path):
        """--index pointing at a .json inside the registry is not scanned."""
        from repro.cli import main

        write_registry(tmp_path, n=2)
        db = tmp_path / "custom-index.json"
        assert main(["index", "build", str(tmp_path), "--index", str(db)]) == 0
        out = capsys.readouterr().out
        assert "indexed 2 workspace(s)" in out
        assert "unreadable: 0" in out


class TestConcurrency:
    """One shared RegistryIndex across threads: WAL readers + one writer.

    The query service (repro.service) shares a single index instance
    across request threads while read-through misses commit through the
    single-writer path — these tests pin the contract that makes that
    sound: per-thread connections, readers seeing complete row sets or
    nothing, and close() releasing every thread's connection.
    """

    def test_memory_databases_are_rejected(self):
        with pytest.raises(ValueError, match=":memory:"):
            RegistryIndex(":memory:")

    def test_multi_reader_while_writer_commits(self, tmp_path):
        import threading

        paths = write_registry(tmp_path, n=4)
        config_hash = eval_config_hash(BatchOptions())
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner = ShardedRunner(workers=1)
            runner.run(paths, index=index)  # seed every content hash
            hashes = [index.probe(p).content_hash for p in paths]

            stop = threading.Event()
            errors = []

            def reader(content_hash):
                try:
                    while not stop.is_set():
                        rows = index.lookup_results(content_hash, config_hash)
                        # complete row set or nothing, never a torn read
                        assert rows is None or (
                            len(rows) == 1 and rows[0].sub_index == 0
                        )
                        record = index.probe(paths[0])
                        assert record is not None
                        assert index.status()["n_workspaces"] == 4
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(h,)) for h in hashes
            ]
            for thread in threads:
                thread.start()
            try:
                # the writer: repeated full refresh commits under
                # BEGIN IMMEDIATE while the readers spin
                for _ in range(5):
                    runner.run(paths, index=index, refresh=True)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            assert not errors
            assert index.status()["n_result_rows"] == 4

    def test_each_thread_gets_its_own_connection(self, tmp_path):
        import threading

        write_registry(tmp_path, n=1)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            main_conn = index._conn
            seen = []

            def worker():
                seen.append(index._conn)
                assert index.status()["n_workspaces"] == 0

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join(timeout=10)
            assert len(seen) == 1
            assert seen[0] is not main_conn

    def test_close_shuts_every_threads_connection(self, tmp_path):
        import threading

        index = RegistryIndex(tmp_path / "index.sqlite")

        def worker():
            index.status()  # opens this thread's connection

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert len(index._connections) == 2
        index.close()
        assert index._connections == {}
        with pytest.raises((sqlite3.ProgrammingError, ValueError)):
            index.status()

    def test_dead_threads_connections_are_reaped(self, tmp_path):
        import threading

        with RegistryIndex(tmp_path / "index.sqlite") as index:
            for _ in range(5):
                thread = threading.Thread(target=index.status)
                thread.start()
                thread.join(timeout=10)
            # each new thread's connect reaps the previous dead owner,
            # so churners cannot accumulate file descriptors
            with index._connections_lock:
                alive = [
                    owner.is_alive()
                    for owner, _ in index._connections.values()
                ]
            assert len(alive) <= 2  # main + at most the last worker
            assert alive.count(True) == 1


class TestStatusResultBytes:
    def test_empty_index_reports_zero_cached_bytes(self, index):
        info = index.status()
        assert info["n_result_rows"] == 0
        assert info["result_bytes"] == 0

    def test_result_bytes_track_cached_payload(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            ShardedRunner(workers=1).run(paths, index=index)
            info = index.status()
        assert info["n_result_rows"] == 3
        # per row: two 64-hex hashes + the text names + 8 numeric columns
        assert info["result_bytes"] >= 3 * (64 + 64 + 8 * 8)

    def test_cli_status_reports_rows_and_bytes(self, capsys, tmp_path):
        from repro.cli import main

        paths = [str(p) for p in write_registry(tmp_path, n=2)]
        assert main(["batch", "--workers", "1", *paths]) == 0
        capsys.readouterr()
        assert main(["index", "status", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results    : 2 row(s)" in out
        assert "cached byte(s)" in out

"""Delta compilation: patched slices must be bit-identical to recompute.

Covers the schema-v3 incremental stack end to end: component
fingerprints (:func:`repro.core.workspace.component_hashes`), in-place
array patching (:func:`repro.core.engine.delta_compile`), the artifact
diff loader (:func:`repro.core.workspace.load_compiled_delta`), the
runner's rule that an edit its probe ingested is evaluated from that
one parse, and ``watch`` follow mode — plus a hypothesis property test
that random single-component mutations produce delta re-evaluations
bit-identical to a full recompute.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import runtime, workspace
from repro.core.engine import compile_problem, delta_compile
from repro.core.index import RegistryIndex
from repro.core.runtime import BatchOptions, ShardedRunner

from ..conftest import make_small_problem
from .test_workspace_property import problems

_ARRAY_FIELDS = (
    "u_low",
    "u_avg",
    "u_up",
    "missing",
    "w_low",
    "w_avg",
    "w_up",
    "key_low",
    "key_up",
    "key_count",
    "alt_key",
)


def assert_compiled_equal(a, b):
    assert a.name == b.name
    assert a.alternative_names == b.alternative_names
    assert a.attribute_names == b.attribute_names
    for field in _ARRAY_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def change_cell(problem, alt_index=0):
    """The same problem with one performance cell changed."""
    data = workspace.to_dict(problem)
    perf = data["alternatives"][alt_index]["performances"]
    key = sorted(perf)[0]
    perf[key] = 0.0 if perf[key] != 0.0 else 1.0
    return workspace.from_dict(data)


class TestDeltaCompile:
    def test_single_row_patch_matches_fresh_compile(self):
        old_problem = make_small_problem(name="ws")
        new_problem = change_cell(old_problem, alt_index=1)
        old = compile_problem(old_problem)
        patched = delta_compile(old, new_problem, changed_rows=[1])
        assert_compiled_equal(patched, compile_problem(new_problem))

    def test_weight_only_change_needs_no_rows(self):
        old_problem = make_small_problem(name="ws")
        data = workspace.to_dict(old_problem)
        data["weights"]["cost"] = [0.2, 0.6]
        new_problem = workspace.from_dict(data)
        patched = delta_compile(
            compile_problem(old_problem), new_problem, changed_rows=[]
        )
        assert_compiled_equal(patched, compile_problem(new_problem))

    def test_structural_change_is_refused(self):
        old_problem = make_small_problem(name="ws")
        data = workspace.to_dict(old_problem)
        data["alternatives"] = data["alternatives"][:-1]
        new_problem = workspace.from_dict(data)
        with pytest.raises(ValueError):
            delta_compile(compile_problem(old_problem), new_problem, [0])

    def test_old_compiled_arrays_untouched(self):
        old_problem = make_small_problem(name="ws")
        old = compile_problem(old_problem)
        before = {f: getattr(old, f).copy() for f in _ARRAY_FIELDS}
        delta_compile(old, change_cell(old_problem), changed_rows=[0])
        for field in _ARRAY_FIELDS:
            assert np.array_equal(getattr(old, field), before[field]), field


class TestLoadCompiledDelta:
    def _persisted(self, tmp_path, problem):
        path = tmp_path / "ws.json"
        workspace.save(problem, path)
        loaded = compile_problem(workspace.load(path))
        workspace.save_compiled_arrays(
            loaded,
            workspace.compiled_array_path(path),
            workspace._file_sha256(path),
            workspace.content_hash(problem),
            component_json=workspace.component_json(problem),
        )
        return path, workspace.content_hash(problem)

    @staticmethod
    def _delta(path, old_hash, old_components):
        """The delta of the edited file, handed its ingest and the
        stale artifact payload, as the runner's probe hands them."""
        stale = workspace.load_compiled_arrays(
            workspace.compiled_array_path(path)
        )
        return workspace.load_compiled_delta(
            path, old_hash, old_components, workspace.ingest(path), stale
        )

    def test_detects_changed_rows(self, tmp_path):
        problem = make_small_problem(name="ws")
        path, old_hash = self._persisted(tmp_path, problem)
        old_components = workspace.component_json(problem)
        mutated = change_cell(problem, alt_index=1)
        workspace.save(mutated, path)
        delta = self._delta(path, old_hash, old_components)
        assert delta is not None
        assert delta.changed_rows == (1,)
        assert_compiled_equal(delta.compiled, compile_problem(mutated))

    def test_structural_edit_returns_none(self, tmp_path):
        problem = make_small_problem(name="ws")
        path, old_hash = self._persisted(tmp_path, problem)
        old_components = workspace.component_json(problem)
        data = workspace.to_dict(problem)
        data["alternatives"] = data["alternatives"][:-1]
        workspace.save(workspace.from_dict(data), path)
        assert self._delta(path, old_hash, old_components) is None

    def test_missing_component_json_returns_none(self, tmp_path):
        problem = make_small_problem(name="ws")
        path, old_hash = self._persisted(tmp_path, problem)
        workspace.save(change_cell(problem), path)
        assert self._delta(path, old_hash, None) is None


class TestRunnerDeltaPath:
    def _registry(self, tmp_path, n=6):
        paths = []
        for i in range(n):
            problem = make_small_problem(
                missing_cell=i % 2 == 0, name=f"ws-{i:02d}"
            )
            path = tmp_path / f"ws-{i:02d}.json"
            workspace.save(problem, path)
            paths.append(path)
        return paths

    def _mutate_file(self, path):
        data = json.loads(path.read_text())
        perf = data["alternatives"][0]["performances"]
        key = sorted(perf)[0]
        perf[key] = 0.0 if perf[key] != 0.0 else 1.0
        path.write_text(json.dumps(data))

    @pytest.mark.parametrize("simulations", [0, 40])
    def test_delta_run_identical_to_refresh(self, tmp_path, simulations):
        paths = self._registry(tmp_path)
        runner = ShardedRunner(
            workers=1,
            options=BatchOptions(simulations=simulations, seed=7),
        )
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            self._mutate_file(paths[0])
            delta_report = runner.run(paths, index=index)
            full_report = runner.run(paths, index=index, refresh=True)
        assert delta_report.n_delta == 1
        assert delta_report.n_cached == len(paths) - 1
        assert delta_report.results == full_report.results

    def test_structural_edit_falls_back_to_full_evaluation(self, tmp_path):
        paths = self._registry(tmp_path)
        runner = ShardedRunner(workers=1, options=BatchOptions())
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            data = json.loads(paths[0].read_text())
            data["alternatives"] = data["alternatives"][:-1]
            paths[0].write_text(json.dumps(data))
            report = runner.run(paths, index=index)
            reference = runner.run(paths, index=index, refresh=True)
        assert report.n_delta == 0
        assert report.n_cached == len(paths) - 1
        assert report.results == reference.results

    def _rename_alternative(self, path):
        """Rename one alternative: a structural edit no delta can patch."""
        data = json.loads(path.read_text())
        data["alternatives"][0]["name"] += "~renamed"
        path.write_text(json.dumps(data))

    @pytest.mark.parametrize(
        "config, edit, edited, workers, refresh",
        [
            ("plain", "rename", (1,), 1, False),
            ("plain", "rename", (1, 2), 2, False),
            ("plain", "cell", (1,), 1, True),
            ("no-disk-cache", "cell", (1,), 1, False),
            ("objectives", "cell", (1,), 1, False),
            ("roster", "cell", (1,), 1, False),
        ],
        ids=[
            "rename",
            "two-renames-2-workers",
            "refresh",
            "no-disk-cache",
            "objectives",
            "roster",
        ],
    )
    def test_an_edit_is_parsed_once(
        self, tmp_path, monkeypatch, config, edit, edited, workers, refresh
    ):
        """An edit the probe ingested is evaluated from that parse, in
        process, in every configuration: never parsed a second time,
        never sent to a pool, its artifact written only with the disk
        cache on, its rows those of a refresh and an index-less run."""
        from .test_runtime_group import make_spec

        paths = self._registry(tmp_path, n=4)
        options = {
            "plain": BatchOptions(),
            "no-disk-cache": BatchOptions(use_disk_cache=False),
            "objectives": BatchOptions(objectives=True),
            "roster": BatchOptions(group=make_spec()),
        }[config]
        runner = ShardedRunner(workers=workers, options=options)
        seen = {"parse": 0, "artifact_write": 0, "pool": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                seen[name] += 1
                return real(*args, **kwargs)

            return call

        class CountedPool(runtime.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen["pool"] += 1
                super().__init__(*args, **kwargs)

        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            for k in edited:
                if edit == "rename":
                    self._rename_alternative(paths[k])
                else:
                    self._mutate_file(paths[k])
            monkeypatch.setattr(
                workspace, "load", counted("parse", workspace.load)
            )
            monkeypatch.setattr(
                workspace,
                "save_compiled_arrays",
                counted("artifact_write", workspace.save_compiled_arrays),
            )
            monkeypatch.setattr(runtime, "ProcessPoolExecutor", CountedPool)
            report = runner.run(paths, index=index, refresh=refresh)
            monkeypatch.undo()
            reference = runner.run(paths, index=index, refresh=True)
        indexless = ShardedRunner(workers=1, options=options).run(paths)
        assert seen == {
            "parse": len(edited),
            "artifact_write": len(edited) if options.use_disk_cache else 0,
            "pool": 0,
        }
        assert report.n_cached == (0 if refresh else len(paths) - len(edited))
        assert report.n_delta == 0
        assert report.skipped == ()
        assert report.results == reference.results == indexless.results

    def test_graph_run_skips_an_edit_that_cannot_expand(self, tmp_path):
        from repro.casestudy.problem import multimedia_problem

        from .test_runtime_group import make_spec

        paths = self._registry(tmp_path, n=3)
        runner = ShardedRunner(
            workers=1, options=BatchOptions(group=make_spec())
        )
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            # parses, but its hierarchy does not carry the roster
            workspace.save(multimedia_problem(), paths[1])
            report = runner.run(paths, index=index)
            reference = runner.run(paths, index=index, refresh=True)
        assert [s.path for s in report.skipped] == [str(paths[1])]
        assert report.skipped == reference.skipped
        assert report.results == reference.results

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_edit_that_no_longer_parses_is_read_once(
        self, tmp_path, monkeypatch, workers
    ):
        """The probe's failed ingest is the skip: no chunk, and no pool,
        reads and parses the file again to raise the same error."""
        paths = self._registry(tmp_path, n=3)
        runner = ShardedRunner(workers=workers)
        seen = {"parse": 0, "pool": 0}

        def counted_load(*args, **kwargs):
            seen["parse"] += 1
            return real_load(*args, **kwargs)

        class CountedPool(runtime.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                seen["pool"] += 1
                super().__init__(*args, **kwargs)

        real_load = workspace.load
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            paths[1].write_text("{ not json")
            monkeypatch.setattr(workspace, "load", counted_load)
            monkeypatch.setattr(runtime, "ProcessPoolExecutor", CountedPool)
            report = runner.run(paths, index=index)
            monkeypatch.undo()
        indexless = ShardedRunner(workers=1).run(paths)
        assert seen == {"parse": 1, "pool": 0}
        assert [(s.path, s.error) for s in report.skipped] == [
            (
                str(paths[1]),
                "JSONDecodeError: Expecting property name enclosed in "
                "double quotes: line 1 column 3 (char 2)",
            )
        ]
        assert report.skipped == indexless.skipped
        assert report.results == indexless.results

    def test_refresh_and_no_index_never_take_delta_path(self, tmp_path):
        paths = self._registry(tmp_path, n=2)
        runner = ShardedRunner(workers=1, options=BatchOptions())
        with RegistryIndex(tmp_path / "index.sqlite") as index:
            runner.run(paths, index=index)
            self._mutate_file(paths[0])
            refreshed = runner.run(paths, index=index, refresh=True)
        plain = runner.run(paths)
        assert refreshed.n_delta == 0
        assert plain.n_delta == 0


class TestWatch:
    def test_watch_reports_delta_cycles(self, tmp_path):
        registry = tmp_path / "registry"
        registry.mkdir()
        for i in range(3):
            workspace.save(
                make_small_problem(name=f"ws-{i}"),
                registry / f"ws-{i}.json",
            )
        runner = ShardedRunner(workers=1, options=BatchOptions())

        def edit_then_stop(cycle):
            if cycle.cycle == 1:
                data = json.loads((registry / "ws-0.json").read_text())
                perf = data["alternatives"][0]["performances"]
                key = sorted(perf)[0]
                perf[key] = 0.0 if perf[key] != 0.0 else 1.0
                (registry / "ws-0.json").write_text(json.dumps(data))
            return cycle.cycle < 2

        with RegistryIndex(registry / ".idx.sqlite") as index:
            cycles = runner.watch(
                registry, index, interval=0.0, on_cycle=edit_then_stop
            )
        assert [c.cycle for c in cycles] == [1, 2]
        assert cycles[0].n_evaluated == 3
        assert cycles[1].n_delta == 1
        assert cycles[1].n_cached == 2

    def test_watch_notices_new_files(self, tmp_path):
        registry = tmp_path / "registry"
        registry.mkdir()
        workspace.save(make_small_problem(name="ws-0"), registry / "a.json")
        runner = ShardedRunner(workers=1, options=BatchOptions())

        def add_file(cycle):
            if cycle.cycle == 1:
                workspace.save(
                    make_small_problem(name="ws-1"), registry / "b.json"
                )
            return None

        with RegistryIndex(registry / ".idx.sqlite") as index:
            cycles = runner.watch(
                registry,
                index,
                interval=0.0,
                max_cycles=2,
                on_cycle=add_file,
            )
        assert cycles[0].n_paths == 1
        assert cycles[1].n_paths == 2
        assert cycles[1].n_cached == 1

    def test_cli_follow_prints_cycle_reports(self, tmp_path, capsys):
        from repro.cli import main

        registry = tmp_path / "registry"
        registry.mkdir()
        workspace.save(make_small_problem(name="ws-0"), registry / "a.json")
        code = main(
            [
                "batch",
                "--follow",
                "--cycles",
                "2",
                "--interval",
                "0",
                str(registry),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cycle 1: 1 workspace(s): 1 evaluated (0 delta)" in out
        assert "cycle 2: 1 workspace(s): 0 evaluated (0 delta)" in out

    def test_cli_follow_conflicts(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--no-cache"):
            main(["batch", "--follow", "--no-cache", str(tmp_path)])
        with pytest.raises(SystemExit, match="--refresh"):
            main(["batch", "--follow", "--refresh", str(tmp_path)])


#: One random single-component edit, applied to a workspace dict.
_MUTATIONS = ("cell", "weight", "name")


@settings(max_examples=20, deadline=None)
@given(problems(), st.data())
def test_random_single_component_mutation_delta_equals_full(problem, data):
    """Property: any single-component edit that keeps the problem
    structure produces a delta re-evaluation bit-identical to a full
    recompute of the same registry."""
    with tempfile.TemporaryDirectory(prefix="delta-prop-") as tmp:
        tmp = Path(tmp)
        path = tmp / "ws.json"
        workspace.save(problem, path)
        runner = ShardedRunner(workers=1, options=BatchOptions())
        with RegistryIndex(tmp / "index.sqlite") as index:
            runner.run([path], index=index)

            doc = json.loads(path.read_text())
            kind = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
            if kind == "cell":
                alts = doc["alternatives"]
                alt = alts[data.draw(
                    st.integers(0, len(alts) - 1), label="alt"
                )]
                attrs = sorted(alt["performances"])
                attr = attrs[data.draw(
                    st.integers(0, len(attrs) - 1), label="attr"
                )]
                value = float(data.draw(st.integers(0, 3), label="value"))
                assume(alt["performances"][attr] != value)
                alt["performances"][attr] = value
            elif kind == "weight":
                nodes = sorted(doc["weights"])
                node = nodes[data.draw(
                    st.integers(0, len(nodes) - 1), label="node"
                )]
                old_low, old_up = doc["weights"][node]
                # Widen the interval: the lower-bound sum can only
                # drop and the upper-bound sum can only grow, so the
                # weight box stays simplex-feasible.
                shrink = data.draw(
                    st.floats(0.5, 0.95, allow_nan=False), label="shrink"
                )
                grow = data.draw(
                    st.floats(0.01, 0.2, allow_nan=False), label="grow"
                )
                interval = [old_low * shrink, min(1.0, old_up + grow)]
                assume(doc["weights"][node] != interval)
                doc["weights"][node] = interval
            else:
                doc["name"] = str(doc.get("name") or "ws") + "-edited"
            path.write_text(json.dumps(doc))

            delta_report = runner.run([path], index=index)
            full_report = runner.run([path], index=index, refresh=True)

        assert delta_report.n_delta == 1
        assert delta_report.results == full_report.results

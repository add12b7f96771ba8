"""Cross-process span stitching through the sharded runtime.

The observability contract :mod:`repro.obs` makes with
:class:`~repro.core.runtime.ShardedRunner`:

* spans recorded *inside worker processes* ship home in the chunk
  results and stitch under the parent trace (deterministic order);
* tracing never changes the merged report;
* the per-stage breakdown (``RegistryReport.stage_seconds``) is
  populated exactly when a tracer is installed.
"""

import os

from repro.core import workspace
from repro.core.runtime import BatchOptions, ShardedRunner
from repro.obs import trace

from ..conftest import make_small_problem


def write_registry(tmp_path, n=12):
    paths = []
    for i in range(n):
        problem = make_small_problem(
            missing_cell=(i % 2 == 0), name=f"ws-{i:02d}"
        )
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(problem, path)
        paths.append(path)
    return paths


def traced_run(paths, workers=2, chunk_size=3):
    runner = ShardedRunner(
        workers=workers,
        chunk_size=chunk_size,
        options=BatchOptions(simulations=64, seed=7),
    )
    with trace.tracing() as tracer:
        report = runner.run(paths)
    return report, tracer


class TestWorkerSpanStitching:
    def test_worker_spans_ship_home(self, tmp_path):
        paths = write_registry(tmp_path)
        _, tracer = traced_run(paths)
        pids = {s.pid for s in tracer.spans()}
        assert os.getpid() in pids
        assert len(pids) > 1, "expected spans recorded in worker processes"

    def test_stage_names_cover_the_pipeline(self, tmp_path):
        paths = write_registry(tmp_path)
        _, tracer = traced_run(paths)
        names = {s.name for s in tracer.spans()}
        assert {
            "registry.run",
            "registry.fan_out",
            "registry.round",
            "chunk.evaluate",
            "workspace.load",
            "eval.stacked",
            "eval.montecarlo",
        } <= names

    def test_one_trace_id_after_stitching(self, tmp_path):
        paths = write_registry(tmp_path)
        _, tracer = traced_run(paths)
        assert {s.trace_id for s in tracer.spans()} == {tracer.trace_id}

    def test_worker_roots_parent_under_fan_out(self, tmp_path):
        paths = write_registry(tmp_path)
        _, tracer = traced_run(paths)
        spans = tracer.spans()
        fan = next(s for s in spans if s.name == "registry.fan_out")
        parent_pid = os.getpid()
        worker_chunks = [
            s
            for s in spans
            if s.name == "chunk.evaluate" and s.pid != parent_pid
        ]
        assert worker_chunks
        assert all(s.parent_id == fan.span_id for s in worker_chunks)
        # every stitched span resolves to a parent within the trace
        ids = {s.span_id for s in spans}
        for record in spans:
            if record.parent_id is not None:
                assert record.parent_id in ids

    def test_stitched_order_is_deterministic(self, tmp_path):
        paths = write_registry(tmp_path)
        # warm the .npz compile cache so both traced runs share the
        # same cache state (compile spans appear only on cold runs)
        ShardedRunner(
            workers=2,
            chunk_size=3,
            options=BatchOptions(simulations=64, seed=7),
        ).run(paths)
        _, first = traced_run(paths)
        _, second = traced_run(paths)
        assert [s.name for s in first.spans()] == [
            s.name for s in second.spans()
        ]
        # adopted chunks keep registry order: the chunk spans' first
        # workspace attribute is non-decreasing across the span list
        def chunk_order(tracer):
            return [
                s.attributes.get("n")
                for s in tracer.spans()
                if s.name == "chunk.evaluate"
            ]

        assert chunk_order(first) == chunk_order(second)


class TestTracingChangesNothing:
    def test_results_identical_with_and_without_tracer(self, tmp_path):
        paths = write_registry(tmp_path)
        options = BatchOptions(simulations=64, seed=7)
        plain = ShardedRunner(workers=2, chunk_size=3, options=options).run(
            paths
        )
        traced, _ = traced_run(paths)
        assert traced.results == plain.results
        assert traced.skipped == plain.skipped

    def test_serial_path_ships_no_payloads_but_still_traces(self, tmp_path):
        paths = write_registry(tmp_path, n=4)
        runner = ShardedRunner(workers=1, options=BatchOptions())
        with trace.tracing() as tracer:
            report = runner.run(paths)
        assert len(report.results) == 4
        names = {s.name for s in tracer.spans()}
        assert "workspace.load" in names
        assert "eval.stacked" in names
        assert {s.pid for s in tracer.spans()} == {os.getpid()}


class TestStageSeconds:
    def test_populated_only_under_tracing(self, tmp_path):
        paths = write_registry(tmp_path, n=4)
        options = BatchOptions()
        untraced = ShardedRunner(workers=1, options=options).run(paths)
        assert untraced.stage_seconds == ()
        traced, _ = traced_run(paths, workers=1)
        stages = dict(traced.stage_seconds)
        assert "eval.stacked" in stages
        assert all(seconds >= 0.0 for seconds in stages.values())
        assert list(stages) == sorted(stages)

    def test_worker_time_included(self, tmp_path):
        paths = write_registry(tmp_path)
        report, tracer = traced_run(paths)
        stages = dict(report.stage_seconds)
        parent_pid = os.getpid()
        worker_eval = [
            s
            for s in tracer.spans()
            if s.name == "eval.stacked" and s.pid != parent_pid
        ]
        assert worker_eval, "expected worker-side eval spans"
        assert stages["eval.stacked"] > 0.0


class TestCompileStages:
    def test_compile_nests_parse_hash_lower_and_write(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        with trace.tracing() as tracer:
            ShardedRunner(workers=1, options=BatchOptions()).run(paths)
        spans = tracer.spans()
        compiles = [s for s in spans if s.name == "workspace.compile"]
        assert len(compiles) == 3
        for outer in compiles:
            children = [s.name for s in spans if s.parent_id == outer.span_id]
            assert children == [
                "workspace.parse",
                "workspace.hash",
                "workspace.lower",
                "artifact.write",
            ]
        # warm: the artifacts serve the next run, nothing compiles
        with trace.tracing() as warm:
            ShardedRunner(workers=1, options=BatchOptions()).run(paths)
        assert "workspace.compile" not in {s.name for s in warm.spans()}

"""Tests for the sharded multi-problem batch runtime."""

import json

import pytest

from repro.core import workspace
from repro.core.engine import BatchEvaluator, compile_problem
from repro.core.runtime import (
    BatchOptions,
    RegistryReport,
    ShardedRunner,
    SkippedWorkspace,
    evaluate_problems,
    evaluate_registry_chunk,
    shard_registry,
)

from ..conftest import make_small_problem


def write_registry(tmp_path, n=6, missing_every=2):
    paths = []
    for i in range(n):
        problem = make_small_problem(
            missing_cell=(i % missing_every == 0), name=f"ws-{i:02d}"
        )
        path = tmp_path / f"ws-{i:02d}.json"
        workspace.save(problem, path)
        paths.append(path)
    return paths


class TestSharding:
    def test_chunks_cover_registry_in_order(self):
        chunks = shard_registry(10, workers=2)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_work_stealing_granularity(self):
        # ~4 chunks per worker, so a slow shard cannot serialise the run
        chunks = shard_registry(100, workers=4)
        assert len(chunks) >= 4 * 4 - 3
        assert max(len(c) for c in chunks) <= 100 // (4 * 4) + 1

    def test_explicit_chunk_size(self):
        chunks = shard_registry(7, workers=2, chunk_size=3)
        assert [len(c) for c in chunks] == [3, 3, 1]

    def test_degenerate_inputs(self):
        assert shard_registry(0, workers=2) == []
        with pytest.raises(ValueError):
            shard_registry(3, workers=0)
        with pytest.raises(ValueError):
            shard_registry(3, workers=1, chunk_size=0)
        with pytest.raises(ValueError):
            shard_registry(-1, workers=1)


class TestChunkEvaluation:
    def test_results_match_per_problem_evaluation(self, tmp_path):
        paths = write_registry(tmp_path, n=4)
        chunk = [(i, str(p)) for i, p in enumerate(paths)]
        results, skipped, n_stacks, identities, _ = evaluate_registry_chunk(
            chunk, BatchOptions()
        )
        assert skipped == [] and n_stacks == 1
        assert identities == {}  # none requested
        assert [r.index for r in results] == [0, 1, 2, 3]
        for result, path in zip(results, paths):
            best = BatchEvaluator(
                compile_problem(workspace.load(path))
            ).evaluate().best
            assert result.best_name == best.name
            assert result.best_average == best.average
            assert result.best_minimum == best.minimum
            assert result.best_maximum == best.maximum

    def test_monte_carlo_columns_match_per_problem(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        chunk = [(i, str(p)) for i, p in enumerate(paths)]
        options = BatchOptions(simulations=200, seed=11)
        results = evaluate_registry_chunk(chunk, options).results
        for result, path in zip(results, paths):
            evaluator = BatchEvaluator(compile_problem(workspace.load(path)))
            mc = evaluator.simulate(
                method="intervals",
                n_simulations=200,
                seed=11,
                sample_utilities="missing",
            )
            assert result.ever_best == len(mc.ever_best())
            assert result.top5_fluctuation == mc.max_fluctuation(
                mc.top_k_by_mean(5)
            )

    def test_objectives_expand_after_each_workspace(self, tmp_path):
        paths = write_registry(tmp_path, n=2)
        chunk = [(i, str(p)) for i, p in enumerate(paths)]
        results = evaluate_registry_chunk(
            chunk, BatchOptions(objectives=True)
        ).results
        # workspace + its two top-level objectives, per workspace (the
        # chunk returns stack order; the runner's merge sorts by key)
        results = sorted(results, key=lambda r: r.order_key)
        assert [(r.index, r.sub_index) for r in results] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]
        assert results[1].name == "ws-00:cost"
        assert results[2].name == "ws-00:quality"


class TestInMemoryProblems:
    @pytest.mark.parametrize(
        "options",
        [BatchOptions(objectives=True, simulations=30, seed=5), BatchOptions()],
    )
    def test_rows_equal_a_run_over_saved_workspaces(self, tmp_path, options):
        from dataclasses import replace

        problems = [
            make_small_problem(missing_cell=i % 2 == 0, name=f"p{i}")
            for i in range(3)
        ]
        paths = []
        for i, problem in enumerate(problems):
            paths.append(tmp_path / f"p{i}.json")
            workspace.save(problem, paths[-1])
        report = evaluate_problems(problems, options)
        saved = ShardedRunner(workers=1, options=options).run(paths)
        assert report.results == tuple(
            replace(r, path="") for r in saved.results
        )
        assert report.skipped == () and report.n_workspaces == 3

    def test_rejects_group_with_objectives(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            evaluate_problems(
                [make_small_problem()],
                BatchOptions(objectives=True, group=(("dm", ()),)),
            )


class TestCorruptWorkspaces:
    def test_corrupt_json_reported_and_skipped(self, tmp_path):
        paths = write_registry(tmp_path, n=3)
        bad = tmp_path / "corrupt.json"
        bad.write_text("{ this is not json")
        wrong = tmp_path / "wrong-format.json"
        wrong.write_text(json.dumps({"format": "other/1"}))
        registry = [paths[0], bad, paths[1], wrong, paths[2]]
        report = ShardedRunner(workers=1).run(registry)
        assert report.n_evaluated == 3
        assert [s.index for s in report.skipped] == [1, 3]
        assert "JSONDecodeError" in report.skipped[0].error
        assert isinstance(report.skipped[1], SkippedWorkspace)
        # the good entries kept their registry indices
        assert [r.index for r in report.results] == [0, 2, 4]

    def test_missing_file_skipped(self, tmp_path):
        paths = write_registry(tmp_path, n=2)
        registry = [paths[0], tmp_path / "nope.json", paths[1]]
        report = ShardedRunner(workers=1).run(registry)
        assert report.n_evaluated == 2
        assert len(report.skipped) == 1
        assert "nope.json" in report.skipped[0].path


class TestDeterministicMerge:
    @pytest.mark.parametrize("simulations", [0, 150])
    def test_identical_across_worker_counts(self, tmp_path, simulations):
        paths = write_registry(tmp_path, n=9)
        reports = {}
        for workers in (1, 2, 3):
            runner = ShardedRunner(
                workers=workers,
                options=BatchOptions(simulations=simulations, seed=7),
            )
            reports[workers] = runner.run(paths)
        assert reports[1].results == reports[2].results == reports[3].results
        assert isinstance(reports[2], RegistryReport)

    def test_identical_across_chunk_sizes(self, tmp_path):
        paths = write_registry(tmp_path, n=8)
        a = ShardedRunner(workers=1, chunk_size=1).run(paths)
        b = ShardedRunner(workers=1, chunk_size=8).run(paths)
        assert a.results == b.results

    def test_mixed_shapes_merge_in_registry_order(self, tmp_path):
        from repro.casestudy.problem import multimedia_problem

        small = write_registry(tmp_path, n=2)
        big = tmp_path / "mm.json"
        workspace.save(multimedia_problem(), big)
        registry = [small[0], big, small[1]]
        report = ShardedRunner(workers=1, chunk_size=3).run(registry)
        assert [r.index for r in report.results] == [0, 1, 2]
        assert report.results[1].name == "Multimedia"
        assert report.n_stacks == 2

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ShardedRunner(workers=0)

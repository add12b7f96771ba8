"""Tests for the ``repro`` command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_range(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "11"])


class TestCommands:
    def test_figure(self, capsys):
        code, out = run_cli(capsys, "figure", "1")
        assert code == 0
        assert "Reuse Cost" in out

    def test_rank(self, capsys):
        code, out = run_cli(capsys, "rank")
        assert code == 0
        assert out.index("Media Ontology") < out.index("Boemie VDO")

    def test_rank_by_objective(self, capsys):
        code, out = run_cli(capsys, "rank", "--objective", "Understandability")
        assert code == 0
        assert "Boemie VDO" in out

    def test_stability(self, capsys):
        code, out = run_cli(capsys, "stability")
        assert code == 0
        assert out.count("BOUNDED") == 2

    def test_screen(self, capsys):
        code, out = run_cli(capsys, "screen")
        assert code == 0
        assert "20 of 23" in out

    def test_intervals(self, capsys):
        code, out = run_cli(capsys, "intervals")
        assert code == 0
        assert "best attainable" in out
        assert "Media Ontology" in out

    def test_simulate_small(self, capsys):
        code, out = run_cli(capsys, "simulate", "-n", "200", "--seed", "1")
        assert code == 0
        assert "ever ranked first" in out

    def test_batch_default_problem(self, capsys):
        code, out = run_cli(capsys, "batch")
        assert code == 0
        assert "Multimedia" in out and "Media Ontology" in out
        assert "evaluated 1 problem(s)" in out

    def test_batch_objectives_and_simulate(self, capsys):
        code, out = run_cli(
            capsys, "batch", "--objectives", "--simulate", "200", "--seed", "1"
        )
        assert code == 0
        assert "Multimedia:Understandability" in out
        assert "ever best" in out
        assert "200 simulations each" in out

    def test_batch_workspace_registry_hits_compile_cache(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.core import workspace

        target = tmp_path / "ws.json"
        code, _ = run_cli(capsys, "workspace", "save", str(target))
        assert code == 0
        ingested = []
        ingest = workspace.ingest
        monkeypatch.setattr(
            workspace,
            "ingest",
            lambda path, *rest: ingested.append(path) or ingest(path, *rest),
        )
        code, cold = run_cli(capsys, "batch", str(target), str(target))
        assert code == 0
        assert "evaluated 2 problem(s)" in cold
        assert cold.count("Media Ontology") == 2
        # the second entry reads the .npz artifact the first one wrote
        assert len(ingested) == 1
        code, warm = run_cli(capsys, "batch", str(target), str(target))
        assert code == 0
        assert warm == cold

    def test_batch_skips_corrupt_workspace(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        code, _ = run_cli(capsys, "workspace", "save", str(good))
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{ definitely not json")
        code, out = run_cli(capsys, "batch", str(good), str(bad))
        assert code == 0
        assert "evaluated 1 problem(s)" in out
        assert "skipped 1 unreadable workspace(s)" in out
        assert "bad.json" in out

    def test_batch_workers_byte_identical_merged_output(
        self, capsys, tmp_path
    ):
        target = tmp_path / "ws.json"
        code, _ = run_cli(capsys, "workspace", "save", str(target))
        assert code == 0
        registry = [str(target)] * 5
        outputs = {}
        for workers in (1, 2, 3):
            code, out = run_cli(
                capsys,
                "batch",
                "--workers",
                str(workers),
                "--simulate",
                "100",
                *registry,
            )
            assert code == 0
            outputs[workers] = out
        assert outputs[1] == outputs[2] == outputs[3]
        assert "evaluated 5 problem(s)" in outputs[1]
        # and no --workers means --workers 1
        code, default = run_cli(
            capsys, "batch", "--simulate", "100", *registry
        )
        assert code == 0
        assert default == outputs[1]

    def test_batch_workers_skips_corrupt_workspace(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        code, _ = run_cli(capsys, "workspace", "save", str(good))
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        code, out = run_cli(
            capsys, "batch", "--workers", "1", str(good), str(bad)
        )
        assert code == 0
        assert "evaluated 1 problem(s)" in out
        assert "skipped 1 unreadable workspace(s)" in out

    def test_batch_all_corrupt_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        code, out = run_cli(capsys, "batch", str(bad))
        assert code == 1
        assert "evaluated 0 problem(s)" in out
        code, out = run_cli(capsys, "batch", "--workers", "1", str(bad))
        assert code == 1
        assert "skipped 1 unreadable workspace(s)" in out

    def test_batch_directory_evaluates_its_workspaces(self, capsys, tmp_path):
        from repro.core import genreg

        registry = tmp_path / "registry"
        spec = genreg.preset("small", seed=0, n_workspaces=3)
        paths = [str(p) for p in genreg.write_registry(spec, registry)]
        for flags in ((), ("--workers", "1", "--no-cache")):
            code, by_dir = run_cli(capsys, "batch", *flags, str(registry))
            assert code == 0
            assert "evaluated 3 problem(s)" in by_dir
            assert "skipped" not in by_dir
            code, by_files = run_cli(capsys, "batch", *flags, *paths)
            table = lambda text: text.split("\nevaluated")[0]  # noqa: E731
            assert table(by_dir) == table(by_files)

    def test_batch_workers_requires_workspaces(self, capsys):
        with pytest.raises(SystemExit):
            main(["batch", "--workers", "2"])

    def test_batch_workers_objectives(self, capsys, tmp_path):
        target = tmp_path / "ws.json"
        code, _ = run_cli(capsys, "workspace", "save", str(target))
        assert code == 0
        code, out = run_cli(
            capsys, "batch", "--workers", "1", "--objectives", str(target)
        )
        assert code == 0
        assert "Multimedia:Understandability" in out

    def test_pipeline(self, capsys):
        code, out = run_cli(capsys, "pipeline")
        assert code == 0
        assert "selected 5" in out

    def test_workspace_round_trip(self, capsys, tmp_path):
        target = tmp_path / "ws.json"
        code, out = run_cli(capsys, "workspace", "save", str(target))
        assert code == 0 and target.exists()
        code, out = run_cli(capsys, "--workspace", str(target), "rank")
        assert code == 0
        assert "Media Ontology" in out

    def test_workspace_show(self, capsys):
        code, out = run_cli(capsys, "workspace", "show")
        assert code == 0
        assert "alternatives: 23" in out

    def test_workspace_save_needs_path(self, capsys):
        with pytest.raises(SystemExit):
            main(["workspace", "save"])


BATCH_GOLDEN = Path(__file__).parent / "data" / "batch"


def sequential_output(name: str, registry: object = "") -> str:
    """What the former sequential ``repro batch`` loop printed.

    ``tests/data/batch/*.txt`` hold its stdout verbatim, with the
    registry directory written as ``{registry}``.  The footer's
    ``; compile cache: ...`` clause reported the in-process compile LRU,
    which is gone, so it is dropped before comparing.
    """
    text = (BATCH_GOLDEN / f"{name}.txt").read_text()
    text = re.sub(r"; compile cache: \d+ hits, \d+ misses", "", text)
    return text.replace("{registry}", str(registry))


class TestBatchOutputUnchanged:
    """Every ``repro batch`` run goes through the sharded runtime; its
    stdout matches the sequential loop it replaced, byte for byte."""

    @pytest.fixture()
    def registry(self, tmp_path):
        from repro.core import genreg

        root = tmp_path / "registry"
        genreg.write_registry(genreg.preset("default", n_workspaces=40), root)
        return root

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("bare", []),
            ("simulate", ["--simulate", "200"]),
            ("objectives", ["--objectives"]),
        ],
    )
    def test_registry(self, capsys, registry, name, flags):
        expected = sequential_output(name)
        # cold, warm (served from the index), --workers 1, --no-cache
        for extra in ([], [], ["--workers", "1"], ["--no-cache"]):
            code, out = run_cli(capsys, "batch", *flags, *extra, str(registry))
            assert code == 0
            assert out == expected, extra

    def test_corrupt_workspace(self, capsys, registry):
        (registry / "corrupt.json").write_text("{ definitely not json")
        code, out = run_cli(capsys, "batch", str(registry))
        assert code == 0
        assert out == sequential_output("corrupt", registry)

    def test_all_corrupt(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text("{ definitely not json")
        (tmp_path / "b.json").write_text("[1, 2")
        code, out = run_cli(capsys, "batch", str(tmp_path))
        assert code == 1
        assert out == sequential_output("allcorrupt", tmp_path)

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("casestudy", []),
            (
                "casestudy_objectives_simulate",
                ["--objectives", "--simulate", "200"],
            ),
        ],
    )
    def test_case_study(self, capsys, name, flags):
        code, out = run_cli(capsys, "batch", *flags)
        assert code == 0
        assert out == sequential_output(name)


def write_group_fixture(tmp_path):
    """(registry dir, members file) for group CLI tests."""
    import json

    from repro.core import workspace

    from .conftest import make_small_problem

    registry = tmp_path / "registry"
    registry.mkdir()
    for i in range(4):
        workspace.save(
            make_small_problem(missing_cell=(i % 2 == 0), name=f"ws-{i:02d}"),
            registry / f"ws-{i:02d}.json",
        )
    members = []
    for k in range(3):
        local = {}
        for i, node in enumerate(
            ("cost", "quality", "battery life", "vendor support")
        ):
            factor = 1.0 + 0.2 * ((k + i) % 3)
            local[node] = [0.8 * factor, 1.2 * factor]
        members.append({"name": f"dm-{k}", "local": local})
    members_path = tmp_path / "members.json"
    members_path.write_text(
        json.dumps({"format": "repro-members/1", "members": members})
    )
    return registry, members_path


def table_names(text: str) -> list:
    """First-column cells of a batch/group table, in row order."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---"))
    names = []
    for line in lines[start + 1:]:
        if line.startswith("evaluated "):
            break
        names.append(line.split()[0])
    return names


class TestOneRegistryWalk:
    def test_verbs_agree_on_nested_registry(self, capsys, tmp_path):
        from repro.core import workspace
        from repro.core.index import RegistryIndex
        from repro.service.app import ServiceApp

        from .conftest import make_small_problem

        registry, members = write_group_fixture(tmp_path)
        # string order puts "a-b/" before "a/" ('-' sorts before '/');
        # a Path-wise sort would not
        for rel in ("a/x", "a-b/x", "a/.hidden"):
            target = registry / f"{rel}.json"
            target.parent.mkdir(exist_ok=True)
            workspace.save(make_small_problem(name=rel), target)
        expected = ["a-b/x", "a/x", "ws-00", "ws-01", "ws-02", "ws-03"]

        code, out = run_cli(capsys, "batch", str(registry))
        assert code == 0
        assert table_names(out) == expected
        code, out = run_cli(
            capsys, "group", "--registry", str(registry),
            "--members", str(members),
        )
        assert code == 0
        assert table_names(out) == expected
        code, out = run_cli(capsys, "index", "build", str(registry))
        assert code == 0
        assert f"indexed {len(expected)} workspace(s)" in out
        with RegistryIndex(registry / ".repro-index.sqlite") as index:
            assert index.lookup_workspace(registry / "a/.hidden.json") is None
        with ServiceApp(registry) as app:
            listing = json.loads(app.handle("GET", "/v1/registry", {}).body)
        assert [ws["id"] for ws in listing["workspaces"]] == expected

    def test_walk_lists_exactly_these_paths(self, tmp_path, monkeypatch):
        """The listing every verb shares, pinned path by path: string
        order, hidden files out, hidden directories in, the explicit
        ``--index`` file out, however the root is spelled."""
        from repro.core.runtime import expand_registry_source

        registry = tmp_path / "reg"
        for rel in (
            "a/x.json", "a-b/x.json", "a/.hidden.json", "a/deep/y.json",
            ".cache/z.json", "index.json", "top.json", "notes.txt",
        ):
            target = registry / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("{}")
        listed = [
            ".cache/z.json", "a-b/x.json", "a/deep/y.json", "a/x.json",
            "top.json",
        ]
        index = registry / "index.json"
        assert expand_registry_source(registry, index) == [
            str(registry / rel) for rel in listed
        ]
        assert expand_registry_source(str(registry) + "/", index) == [
            str(registry / rel) for rel in listed
        ]
        monkeypatch.chdir(registry)
        assert expand_registry_source(".", "index.json") == listed
        assert expand_registry_source(["a", "top.json"]) == [
            "a/deep/y.json", "a/x.json", "top.json",
        ]
        monkeypatch.chdir(tmp_path)
        assert expand_registry_source("reg", index) == [
            f"reg/{rel}" for rel in listed
        ]

    def test_explicit_json_index_is_not_a_workspace(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        db = str(registry / "index.json")
        for argv in (
            ["batch", "--index", db, str(registry)],
            ["group", "--registry", str(registry), "--members", str(members),
             "--index", db],
        ):
            for _ in range(2):  # the second run finds the database on disk
                code, out = run_cli(capsys, *argv)
                assert code == 0
                assert "skipped" not in out
        code, out = run_cli(capsys, "index", "build", str(registry), "--index", db)
        assert code == 0
        assert "indexed 4 workspace(s)" in out and "unreadable: 0" in out


class TestGroupCommand:
    def test_group_table_over_registry(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        code, out = run_cli(
            capsys, "group", "--registry", str(registry),
            "--members", str(members),
        )
        assert code == 0
        assert "group best" in out and "borda best" in out
        assert out.count("ws-0") >= 4
        assert "evaluated 4 workspace(s) under 3 member(s)" in out

    def test_group_second_run_serves_from_cache(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        code1, out1 = run_cli(
            capsys, "group", "--registry", str(registry),
            "--members", str(members),
        )
        code2, out2 = run_cli(
            capsys, "group", "--registry", str(registry),
            "--members", str(members),
        )
        assert (code1, code2) == (0, 0)
        assert "4 served from cache" in out2
        # identical table either way
        assert out1.splitlines()[:6] == out2.splitlines()[:6]

    def test_group_no_cache_leaves_no_index(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        code, _ = run_cli(
            capsys, "group", "--registry", str(registry),
            "--members", str(members), "--no-cache",
        )
        assert code == 0
        assert not (registry / ".repro-index.sqlite").exists()

    def test_group_missing_members_file(self, capsys, tmp_path):
        registry, _ = write_group_fixture(tmp_path)
        with pytest.raises(SystemExit, match="members"):
            run_cli(
                capsys, "group", "--registry", str(registry),
                "--members", str(tmp_path / "absent.json"),
            )

    def test_group_bad_registry(self, capsys, tmp_path):
        _, members = write_group_fixture(tmp_path)
        with pytest.raises(SystemExit, match="registry"):
            run_cli(
                capsys, "group", "--registry", str(tmp_path / "nope"),
                "--members", str(members),
            )


class TestBatchGroup:
    def test_batch_group_columns(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        workspaces = sorted(str(p) for p in registry.glob("*.json"))
        code, out = run_cli(
            capsys, "batch", "--group", str(members), *workspaces
        )
        assert code == 0
        assert "group best" in out and "borda best" in out

    def test_batch_group_conflicts_with_objectives(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        workspaces = sorted(str(p) for p in registry.glob("*.json"))
        with pytest.raises(SystemExit, match="conflicts"):
            run_cli(
                capsys, "batch", "--group", str(members), "--objectives",
                *workspaces,
            )

    def test_batch_group_requires_workspaces(self, capsys, tmp_path):
        _, members = write_group_fixture(tmp_path)
        with pytest.raises(SystemExit, match="explicit"):
            run_cli(capsys, "batch", "--group", str(members))

    def test_group_no_cache_conflicts_with_refresh(self, capsys, tmp_path):
        registry, members = write_group_fixture(tmp_path)
        with pytest.raises(SystemExit, match="no-cache conflicts"):
            run_cli(
                capsys, "group", "--registry", str(registry),
                "--members", str(members), "--no-cache", "--refresh",
            )


class TestServeMembersValidation:
    def test_missing_members_file_is_not_a_bind_error(self, tmp_path):
        from repro.cli import main

        registry = tmp_path / "registry"
        registry.mkdir()
        with pytest.raises(SystemExit, match="members file"):
            main([
                "serve", "--registry", str(registry),
                "--members", str(tmp_path / "absent.json"), "--port", "0",
            ])

    def test_malformed_members_file_reported(self, tmp_path):
        from repro.cli import main

        registry = tmp_path / "registry"
        registry.mkdir()
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "nope"}')
        with pytest.raises(SystemExit, match="members file"):
            main([
                "serve", "--registry", str(registry),
                "--members", str(bad), "--port", "0",
            ])


class TestTraceAndStats:
    def _registry(self, capsys, tmp_path, n=4):
        target = tmp_path / "ws.json"
        code, _ = run_cli(capsys, "workspace", "save", str(target))
        assert code == 0
        return [str(target)] * n

    def test_batch_trace_writes_chrome_trace(self, capsys, tmp_path):
        import json

        registry = self._registry(capsys, tmp_path)
        trace_file = tmp_path / "trace.json"
        code, out = run_cli(
            capsys, "batch", "--trace", str(trace_file), *registry
        )
        assert code == 0
        assert "evaluated 4 problem(s)" in out
        document = json.loads(trace_file.read_text())
        events = document["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        assert "registry.run" in names
        assert "eval.stacked" in names
        assert all(event["ph"] == "X" for event in events)

    def test_batch_stats_prints_stage_breakdown(self, capsys, tmp_path):
        registry = self._registry(capsys, tmp_path)
        code, out = run_cli(capsys, "batch", "--stats", *registry)
        assert code == 0
        assert "stage breakdown" in out
        assert "registry.run" in out
        assert "eval.stacked" in out

    def test_batch_trace_output_table_unchanged(self, capsys, tmp_path):
        registry = self._registry(capsys, tmp_path)
        code, plain = run_cli(capsys, "batch", "--workers", "1", *registry)
        assert code == 0
        trace_file = tmp_path / "trace.json"
        code, traced = run_cli(
            capsys, "batch", "--workers", "1",
            "--trace", str(trace_file), *registry,
        )
        assert code == 0
        assert plain == traced

    def test_trace_summarize(self, capsys, tmp_path):
        registry = self._registry(capsys, tmp_path)
        trace_file = tmp_path / "trace.json"
        code, _ = run_cli(
            capsys, "batch", "--trace", str(trace_file), *registry
        )
        assert code == 0
        code, out = run_cli(capsys, "trace", "summarize", str(trace_file))
        assert code == 0
        assert "span" in out and "total ms" in out
        assert "registry.run" in out

    def test_trace_summarize_missing_file_errors(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="cannot summarize"):
            run_cli(
                capsys, "trace", "summarize", str(tmp_path / "absent.json")
            )

    def test_follow_stats_prints_one_stage_line_per_cycle(
        self, capsys, tmp_path
    ):
        from repro.obs import trace

        registry = tmp_path / "registry"
        registry.mkdir()
        code, _ = run_cli(
            capsys, "workspace", "save", str(registry / "ws.json")
        )
        assert code == 0
        code, out = run_cli(
            capsys, "batch", "--follow", "--stats",
            "--cycles", "2", "--interval", "0", str(registry),
        )
        assert code == 0
        lines = out.splitlines()
        stage_lines = [line for line in lines if " stages: " in line]
        assert [line.split(" stages: ")[0] for line in stage_lines] == [
            "cycle 1",
            "cycle 2",
        ]
        assert lines.index(stage_lines[0]) == 1  # right after cycle 1's line
        cold, warm = (line.split(" stages: ")[1] for line in stage_lines)
        # each cycle reports only its own spans
        assert "registry.run" in cold and "workspace.compile" in cold
        assert "registry.run" in warm and "workspace.compile" not in warm
        assert trace.active() is None

    def test_follow_conflicts_with_trace(self, capsys, tmp_path):
        registry = self._registry(capsys, tmp_path, n=1)
        with pytest.raises(SystemExit, match="--follow conflicts"):
            run_cli(
                capsys, "batch", "--follow",
                "--trace", str(tmp_path / "t.json"), *registry,
            )

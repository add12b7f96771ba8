"""Tests for the differential fuzz harness (clean, broken-kernel, replay)."""

import dataclasses
import json

import pytest

from repro import fuzz
from repro.core import engine, genreg
from repro.core.genreg import preset


def test_clean_run_has_zero_divergences(tmp_path):
    report = fuzz.run_fuzz(cases=24, seed=0, out_dir=tmp_path)
    assert report.ok
    assert report.divergences == []
    assert report.repro_files == []
    assert report.n_checks > 24  # several oracles per case
    assert list(tmp_path.iterdir()) == []  # nothing emitted when clean


def test_run_is_deterministic():
    a = fuzz.run_fuzz(cases=16, seed=5)
    b = fuzz.run_fuzz(cases=16, seed=5)
    assert (a.ok, a.n_checks, a.divergences) == (b.ok, b.n_checks, b.divergences)


def test_main_exits_zero_on_clean_run(tmp_path, capsys):
    code = fuzz.main(
        ["--cases", "8", "--seed", "1", "--out", str(tmp_path / "repros")]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


class TestBrokenKernel:
    """A deliberately wrong tensor kernel must fail loudly with a repro."""

    @pytest.fixture()
    def broken_average(self, monkeypatch):
        original = engine.StackedEvaluator.average_utilities

        def skewed(self):
            out = original(self).copy()
            out[..., 0] += 1e-9
            return out

        monkeypatch.setattr(engine.StackedEvaluator, "average_utilities", skewed)

    @pytest.fixture()
    def broken_missing_mc(self, monkeypatch):
        original = engine.StackedEvaluator._apply_missing_corrections

        def skewed(self, utilities, weights, rngs):
            before = utilities.copy()
            original(self, utilities, weights, rngs)
            utilities += utilities - before  # corrections applied twice

        monkeypatch.setattr(
            engine.StackedEvaluator, "_apply_missing_corrections", skewed
        )

    @pytest.fixture()
    def broken_borda(self, monkeypatch):
        original = engine.StackedEvaluator.group_results

        def skewed(self, roster):
            return tuple(
                dataclasses.replace(r, borda=r.borda[1::-1] + r.borda[2:])
                for r in original(self, roster)
            )

        monkeypatch.setattr(engine.StackedEvaluator, "group_results", skewed)

    def test_borda_skew_reported_as_group(self, broken_borda):
        # The one-member stack runs the same kernel, so only the
        # recompiling reference can see this.
        report = fuzz.run_fuzz(cases=8, seed=0, shrink=False)
        assert {d.oracle for d in report.divergences} == {"group"}

    def test_monte_carlo_skew_reported_as_stacked_mc(
        self, tmp_path, broken_missing_mc, capsys
    ):
        # Chunk 3 (cases 24..31) is the first to sample missing cells.
        code = fuzz.main(
            ["--cases", "32", "--seed", "0", "--no-shrink", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "DIVERGE [stacked-mc]" in capsys.readouterr().out
        (repro,) = tmp_path.iterdir()
        assert json.loads(repro.read_text())["oracle"] == "stacked-mc"

    def test_divergence_detected_and_repro_emitted(self, tmp_path, broken_average):
        report = fuzz.run_fuzz(cases=8, seed=0, out_dir=tmp_path)
        assert not report.ok
        assert any(d.oracle == "stacked-eval" for d in report.divergences)
        assert report.repro_files
        payload = json.loads(report.repro_files[0].read_text())
        assert payload["format"] == fuzz.REPRO_FORMAT
        assert payload["oracle"] == "stacked-eval"
        genreg.RegistrySpec.from_dict(payload["spec"])  # spec is replayable

    def test_main_exits_nonzero(self, tmp_path, broken_average, capsys):
        code = fuzz.main(
            ["--cases", "8", "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGE" in out and "repro file" in out

    def test_shrinking_simplifies_the_failing_spec(self, tmp_path, broken_average):
        report = fuzz.run_fuzz(cases=8, seed=0, out_dir=tmp_path, shrink=True)
        shrunk = genreg.RegistrySpec.from_dict(
            json.loads(report.repro_files[0].read_text())["spec"]
        )
        full = fuzz.run_fuzz(cases=8, seed=0, shrink=False).spec
        # The reducer must have tightened at least one axis of the sweep.
        assert (
            shrunk.alternatives[1] < full.alternatives[1]
            or shrunk.max_attributes < full.max_attributes
            or shrunk.depth[1] < full.depth[1]
        )

    def test_replay_reproduces_then_clears_after_fix(
        self, tmp_path, broken_average, monkeypatch
    ):
        report = fuzz.run_fuzz(cases=8, seed=0, out_dir=tmp_path)
        repro = report.repro_files[0]
        assert fuzz.replay(repro)  # still broken: divergence reproduces
        monkeypatch.undo()  # restore the healthy kernel
        assert fuzz.replay(repro) == []


def test_replay_rejects_non_repro_payload(tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError, match="not a repro-fuzz/1"):
        fuzz.replay(bogus)


def test_check_chunk_covers_degenerate_preset():
    """The degenerate preset (single alternative, all-missing rows,
    zero-width weights) passes every oracle including the dominance
    oracle."""
    spec = preset("degenerate", seed=0, n_workspaces=8)
    found, checks = fuzz.check_chunk(spec, list(range(8)))
    assert found == []
    assert checks > 8

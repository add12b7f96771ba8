"""Legacy registry-index schemas must migrate in place, never error."""

import json
import sqlite3

import pytest

from repro.core import workspace
from repro.core.index import SCHEMA_VERSION, CachedResult, RegistryIndex
from repro.core.runtime import BatchOptions, ShardedRunner

from ..conftest import make_small_problem

#: The PR 3-era schema: no ``group_json`` column (and, for the oldest
#: variant, none of the nullable Monte Carlo tail columns either).
_LEGACY_RESULTS_V1 = """
CREATE TABLE results (
    content_hash     TEXT NOT NULL,
    config_hash      TEXT NOT NULL,
    sub_index        INTEGER NOT NULL,
    name             TEXT NOT NULL,
    n_alternatives   INTEGER NOT NULL,
    n_attributes     INTEGER NOT NULL,
    best_name        TEXT NOT NULL,
    best_minimum     REAL NOT NULL,
    best_average     REAL NOT NULL,
    best_maximum     REAL NOT NULL,
    ever_best        INTEGER,
    top5_fluctuation INTEGER,
    PRIMARY KEY (content_hash, config_hash, sub_index)
);
"""

_LEGACY_RESULTS_OLDEST = """
CREATE TABLE results (
    content_hash     TEXT NOT NULL,
    config_hash      TEXT NOT NULL,
    sub_index        INTEGER NOT NULL,
    name             TEXT NOT NULL,
    n_alternatives   INTEGER NOT NULL,
    n_attributes     INTEGER NOT NULL,
    best_name        TEXT NOT NULL,
    best_minimum     REAL NOT NULL,
    best_average     REAL NOT NULL,
    best_maximum     REAL NOT NULL,
    PRIMARY KEY (content_hash, config_hash, sub_index)
);
"""

#: The PR 4/5-era results schema: ``group_json`` present, but the
#: workspaces table still lacks the v3 fingerprint tail.
_LEGACY_RESULTS_V2 = """
CREATE TABLE results (
    content_hash     TEXT NOT NULL,
    config_hash      TEXT NOT NULL,
    sub_index        INTEGER NOT NULL,
    name             TEXT NOT NULL,
    n_alternatives   INTEGER NOT NULL,
    n_attributes     INTEGER NOT NULL,
    best_name        TEXT NOT NULL,
    best_minimum     REAL NOT NULL,
    best_average     REAL NOT NULL,
    best_maximum     REAL NOT NULL,
    ever_best        INTEGER,
    top5_fluctuation INTEGER,
    group_json       TEXT,
    PRIMARY KEY (content_hash, config_hash, sub_index)
);
"""

_LEGACY_COMMON = """
CREATE TABLE index_meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE workspaces (
    path            TEXT PRIMARY KEY,
    mtime_ns        INTEGER NOT NULL,
    size            INTEGER NOT NULL,
    source_sha      TEXT NOT NULL,
    content_hash    TEXT NOT NULL,
    npz_source_sha  TEXT,
    n_alternatives  INTEGER NOT NULL,
    n_attributes    INTEGER NOT NULL
);
"""


def build_legacy_db(path, results_sql, version="1", with_row=True):
    conn = sqlite3.connect(path)
    try:
        conn.executescript(_LEGACY_COMMON + results_sql)
        conn.execute(
            "INSERT INTO index_meta (key, value) VALUES ('schema_version', ?)",
            (version,),
        )
        if with_row:
            n_cols = len(
                conn.execute("PRAGMA table_info(results)").fetchall()
            )
            row = ("hash-a", "cfg-a", 0, "legacy", 3, 4, "best", 0.1, 0.5, 0.9)
            row = row + (None,) * (n_cols - len(row))
            conn.execute(
                "INSERT INTO results VALUES (%s)" % ", ".join("?" * n_cols),
                row,
            )
        conn.commit()
    finally:
        conn.close()


class TestSchemaMigration:
    @pytest.mark.parametrize(
        "results_sql", [_LEGACY_RESULTS_V1, _LEGACY_RESULTS_OLDEST]
    )
    def test_legacy_index_opens_and_migrates(self, tmp_path, results_sql):
        db = tmp_path / "legacy.sqlite"
        build_legacy_db(db, results_sql)
        with RegistryIndex(db) as index:
            rows = index.lookup_results("hash-a", "cfg-a")
            assert rows == (
                CachedResult(
                    sub_index=0,
                    name="legacy",
                    n_alternatives=3,
                    n_attributes=4,
                    best_name="best",
                    best_minimum=0.1,
                    best_average=0.5,
                    best_maximum=0.9,
                ),
            )
            status = index.status()
            assert status["n_result_rows"] == 1
            assert status["n_group_rows"] == 0
        # the version stamp is brought forward
        conn = sqlite3.connect(db)
        try:
            value = conn.execute(
                "SELECT value FROM index_meta WHERE key = 'schema_version'"
            ).fetchone()[0]
        finally:
            conn.close()
        assert value == str(SCHEMA_VERSION)

    def test_legacy_index_status_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        registry = tmp_path / "registry"
        registry.mkdir()
        db = registry / ".repro-index.sqlite"
        build_legacy_db(db, _LEGACY_RESULTS_OLDEST)
        code = main(["index", "status", str(registry)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 row(s)" in out

    def test_migrated_index_accepts_group_rows(self, tmp_path):
        db = tmp_path / "legacy.sqlite"
        build_legacy_db(db, _LEGACY_RESULTS_V1)
        with RegistryIndex(db) as index:
            index.record_run(
                [],
                {
                    "hash-b": (
                        CachedResult(
                            sub_index=0,
                            name="fresh",
                            n_alternatives=2,
                            n_attributes=2,
                            best_name="x",
                            best_minimum=0.0,
                            best_average=0.5,
                            best_maximum=1.0,
                            group_json='{"borda":["x"]}',
                        ),
                    )
                },
                "cfg-g",
            )
            rows = index.lookup_results("hash-b", "cfg-g")
            assert rows[0].group_json == '{"borda":["x"]}'

    def test_newer_schema_is_refused(self, tmp_path):
        db = tmp_path / "future.sqlite"
        build_legacy_db(
            db,
            _LEGACY_RESULTS_V1,
            version=str(SCHEMA_VERSION + 1),
            with_row=False,
        )
        with pytest.raises(ValueError, match="unsupported registry index"):
            RegistryIndex(db)

    def test_garbage_version_is_refused(self, tmp_path):
        db = tmp_path / "garbage.sqlite"
        build_legacy_db(
            db, _LEGACY_RESULTS_V1, version="not-a-number", with_row=False
        )
        with pytest.raises(ValueError, match="unsupported registry index"):
            RegistryIndex(db)

    def test_fresh_index_stamped_current(self, tmp_path):
        with RegistryIndex(tmp_path / "fresh.sqlite") as index:
            row = index._conn.execute(
                "SELECT value FROM index_meta WHERE key = 'schema_version'"
            ).fetchone()
            assert row["value"] == str(SCHEMA_VERSION)


class TestWorkspaceTailMigration:
    """v1/v2 databases gain the v3 fingerprint columns in place."""

    @pytest.mark.parametrize(
        "results_sql, version",
        [(_LEGACY_RESULTS_OLDEST, "1"), (_LEGACY_RESULTS_V2, "2")],
    )
    def test_workspace_columns_added(self, tmp_path, results_sql, version):
        db = tmp_path / "legacy.sqlite"
        build_legacy_db(db, results_sql, version=version)
        with RegistryIndex(db) as index:
            columns = {
                row["name"]
                for row in index._conn.execute(
                    "PRAGMA table_info(workspaces)"
                )
            }
            assert {"ctime_ns", "recorded_ns", "component_json"} <= columns
            # the legacy result row is still served after migration
            assert index.lookup_results("hash-a", "cfg-a") is not None

    @pytest.mark.parametrize(
        "results_sql, version",
        [(_LEGACY_RESULTS_OLDEST, "1"), (_LEGACY_RESULTS_V2, "2")],
    )
    def test_legacy_workspace_row_still_probes(
        self, tmp_path, results_sql, version
    ):
        """A pre-v3 row (no ctime/recording time) must never serve a
        stale classification: its stat pair can't match the v3 triple,
        so the probe falls through to the byte check and reports the
        unchanged file as touched."""
        problem = make_small_problem(name="legacy-ws")
        path = tmp_path / "legacy-ws.json"
        workspace.save(problem, path)
        st = path.stat()
        source_sha = workspace._file_sha256(path)
        content = workspace.content_hash(problem)

        db = tmp_path / "legacy.sqlite"
        build_legacy_db(db, results_sql, version=version, with_row=False)
        conn = sqlite3.connect(db)
        try:
            conn.execute(
                "INSERT INTO workspaces VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(path.resolve()),
                    st.st_mtime_ns,
                    st.st_size,
                    source_sha,
                    content,
                    None,
                    len(problem.alternative_names),
                    len(problem.attribute_names),
                ),
            )
            conn.commit()
        finally:
            conn.close()

        with RegistryIndex(db) as index:
            stored = index.lookup_workspace(path)
            assert stored is not None
            assert stored.ctime_ns is None
            assert stored.component_json is None
            record, status = index.probe(path)
            assert status == "touched"
            assert record.content_hash == content
            assert record.ctime_ns == st.st_ctime_ns

    def test_legacy_row_upgrades_into_delta_eligibility(self, tmp_path):
        """After one run over a migrated index, rows carry component
        hashes, so the next one-cell edit takes the delta path."""
        db = tmp_path / "legacy.sqlite"
        build_legacy_db(db, _LEGACY_RESULTS_V2, version="2", with_row=False)
        problem = make_small_problem(name="legacy-ws")
        path = tmp_path / "legacy-ws.json"
        workspace.save(problem, path)

        runner = ShardedRunner(workers=1, options=BatchOptions())
        with RegistryIndex(db) as index:
            first = runner.run([path], index=index)
            assert index.lookup_workspace(path).component_json is not None
            data = json.loads(path.read_text())
            perf = data["alternatives"][0]["performances"]
            key = sorted(perf)[0]
            perf[key] = 0 if perf[key] != 0 else 1
            path.write_text(json.dumps(data))
            second = runner.run([path], index=index)
        assert first.n_delta == 0
        assert second.n_delta == 1

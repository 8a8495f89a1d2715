"""Tests for the ``python -m repro`` command-line interface."""

import io

import pytest

from repro.cli import main
from repro.datasets.io import save


@pytest.fixture()
def data_file(running_example, tmp_path):
    path = tmp_path / "example.bin"
    save(running_example, path)
    return str(path)


class TestGenerate:
    def test_generate_eclog(self, tmp_path, capsys):
        out = str(tmp_path / "ec.bin")
        assert main(["generate", "--dataset", "eclog", "--n", "200", "--out", out]) == 0
        assert "wrote 200 objects" in capsys.readouterr().out

    def test_generate_synthetic_jsonl(self, tmp_path, capsys):
        out = str(tmp_path / "syn.jsonl")
        assert main(["generate", "--dataset", "synthetic", "--n", "100", "--out", out]) == 0
        assert (tmp_path / "syn.jsonl").exists()

    def test_generate_wikipedia(self, tmp_path):
        out = str(tmp_path / "wiki.bin")
        assert main(["generate", "--dataset", "wikipedia", "--n", "150", "--out", out]) == 0


class TestStats:
    def test_stats(self, data_file, capsys):
        assert main(["stats", data_file]) == 0
        out = capsys.readouterr().out
        assert "Cardinality" in out and "8" in out


class TestBuildQueryExplain:
    def test_build(self, data_file, capsys):
        assert main(["build", data_file, "--index", "irhint-perf"]) == 0
        out = capsys.readouterr().out
        assert "built irhint-perf" in out and "size_bytes" in out

    def test_query_running_example(self, data_file, capsys):
        assert (
            main(
                [
                    "query", data_file,
                    "--index", "tif-slicing",
                    "--start", "2", "--end", "4",
                    "--elements", "a,c",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 results" in out
        assert "[2, 4, 7]" in out

    def test_query_pure_temporal(self, data_file, capsys):
        assert (
            main(["query", data_file, "--index", "tif", "--start", "2", "--end", "4"])
            == 0
        )
        assert "6 results" in capsys.readouterr().out

    def test_query_limit(self, data_file, capsys):
        main(
            [
                "query", data_file, "--index", "tif",
                "--start", "0", "--end", "7", "--elements", "c", "--limit", "2",
            ]
        )
        out = capsys.readouterr().out
        assert out.strip().endswith("[1, 2]")

    def test_explain(self, data_file, capsys):
        assert (
            main(
                [
                    "explain", data_file,
                    "--index", "irhint-perf",
                    "--start", "2", "--end", "4",
                    "--elements", "a,c",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "explain irHINT (performance)" in out
        assert "3 results" in out

    def test_untuned_build(self, data_file):
        assert main(["build", data_file, "--index", "tif-slicing", "--no-tuned"]) == 0


class TestBench:
    def test_bench_table3(self, capsys):
        assert main(["bench", "table3", "--scale", "tiny"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_bad_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "not-an-experiment"])

    def test_bad_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServe:
    def _serve(self, monkeypatch, argv, commands):
        monkeypatch.setattr("sys.stdin", io.StringIO(commands))
        return main(argv)

    def test_serve_bootstrap_and_commands(self, data_file, tmp_path, monkeypatch, capsys):
        store_dir = str(tmp_path / "store")
        commands = (
            "query 2 4 a,c\n"
            "insert 60 2 4 a,c\n"
            "query 2 4 a,c\n"
            "delete 60\n"
            "checkpoint\n"
            "stats\n"
            "quit\n"
        )
        code = self._serve(
            monkeypatch,
            ["serve", store_dir, "--index", "tif-slicing", "--data", data_file],
            commands,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstrapped 8 objects" in out
        assert "3 results: [2, 4, 7]" in out
        assert "4 results: [2, 4, 7, 60]" in out
        assert "ok: deleted 60" in out
        assert "ok: snapshot snapshot-" in out
        assert "degraded: False" in out

    def test_serve_errors_do_not_kill_the_loop(self, tmp_path, monkeypatch, capsys):
        store_dir = str(tmp_path / "store")
        commands = (
            "insert 1 0 10 a\n"
            "insert 1 0 10 a\n"   # duplicate -> error line
            "delete 99\n"          # missing -> error line
            "frobnicate\n"         # unknown -> error line
            "insert\n"             # bad arity -> usage line
            "query 0 10\n"
            "quit\n"
        )
        code = self._serve(monkeypatch, ["serve", store_dir, "--index", "brute"], commands)
        assert code == 0
        out = capsys.readouterr().out
        assert "error: object id 1 already indexed" in out
        assert out.count("error:") >= 3
        assert "1 results: [1]" in out

    def test_serve_state_survives_restart(self, tmp_path, monkeypatch, capsys):
        store_dir = str(tmp_path / "store")
        assert self._serve(
            monkeypatch, ["serve", store_dir, "--index", "brute"],
            "insert 7 0 5 x,y\nquit\n",
        ) == 0
        capsys.readouterr()
        assert self._serve(
            monkeypatch, ["serve", store_dir], "query 0 10 x\nquit\n"
        ) == 0
        assert "1 results: [7]" in capsys.readouterr().out


class TestRecover:
    def test_recover_reports_and_checkpoints(self, tmp_path, monkeypatch, capsys):
        store_dir = str(tmp_path / "store")
        monkeypatch.setattr("sys.stdin", io.StringIO("insert 1 0 5 a\nquit\n"))
        assert main(["serve", store_dir, "--index", "brute"]) == 0
        capsys.readouterr()
        assert main(["recover", store_dir, "--checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "1 live objects" in out
        assert "checkpointed recovered state" in out

    def test_recover_missing_directory_fails_cleanly(self, tmp_path):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError, match="not a directory"):
            main(["recover", str(tmp_path / "nope")])


class TestCluster:
    @pytest.fixture()
    def cluster_dir(self, data_file, tmp_path, capsys):
        directory = str(tmp_path / "cluster")
        assert (
            main(
                [
                    "cluster", "build", directory,
                    "--data", data_file,
                    "--index", "tif-slicing",
                    "--shards", "2", "--replicas", "2",
                    "--no-fsync",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return directory

    def test_build_prints_routing(self, data_file, tmp_path, capsys):
        directory = str(tmp_path / "cluster")
        assert (
            main(
                [
                    "cluster", "build", directory,
                    "--data", data_file,
                    "--shards", "3", "--no-fsync",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "built 3-shard time-range cluster" in out
        assert "generation 1" in out

    def test_query_matches_single_index(self, cluster_dir, capsys):
        assert (
            main(
                [
                    "cluster", "query", cluster_dir,
                    "--start", "2", "--end", "4",
                    "--elements", "a,c", "--no-fsync",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 results" in out
        assert "[2, 4, 7]" in out

    def test_status(self, cluster_dir, capsys):
        assert main(["cluster", "status", cluster_dir]) == 0
        out = capsys.readouterr().out
        assert "generation 1 (time-range, 2 shards × 2 replicas)" in out
        assert "2/2 replicas live" in out

    def test_rebalance_dry_run_noop(self, cluster_dir, capsys):
        assert (
            main(["cluster", "rebalance", cluster_dir, "--dry-run", "--no-fsync"])
            == 0
        )
        assert "plan:" in capsys.readouterr().out

    def test_serve_loop(self, cluster_dir, monkeypatch, capsys):
        commands = (
            "query 2 4 a,c\n"
            "insert 60 2 4 a,c\n"
            "query 2 4 a,c\n"
            "delete 60\n"
            "status\n"
            "quit\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(commands))
        assert main(["cluster", "serve", cluster_dir, "--no-fsync"]) == 0
        out = capsys.readouterr().out
        assert "3 results from" in out
        assert "[2, 4, 7, 60]" in out
        assert "ok: deleted 60" in out

    def test_batch_query(self, cluster_dir, tmp_path, capsys):
        from repro.core.model import make_query
        from repro.queries.io import save_queries

        batch = str(tmp_path / "batch.jsonl")
        save_queries([make_query(2, 4, {"a", "c"}), make_query(0, 7, set())], batch)
        assert (
            main(
                [
                    "cluster", "query", cluster_dir,
                    "--batch-file", batch,
                    "--no-fsync",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 queries in" in out
        assert "3 ids" in out and "8 ids" in out


class TestSnapshots:
    def test_build_save_then_query_snapshot(self, data_file, tmp_path, capsys):
        snap = str(tmp_path / "idx.snap")
        assert main(["build", data_file, "--index", "irhint-perf", "--save", snap]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "query", data_file,
                    "--snapshot", snap,
                    "--start", "2", "--end", "4",
                    "--elements", "a,c",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "[2, 4, 7]" in out

"""Tests for the ``python -m repro`` command-line interface."""

import ast
import json
import re

import pytest

from repro.cli import main
from repro.core.model import make_object
from repro.datasets.io import load, save
from repro.service.store import DurableIndexStore


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

    def test_reversed_interval_is_one_error_line(self, data_file, capsys):
        assert main(["query", data_file, "--start", "5", "--end", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: interval start 5 exceeds end 1\n"
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "F", "--start", "nope", "--end", "1"],
        ["explain", "F", "--start", "0", "--end", "nope"],
        ["cluster", "query", "DIR", "--start", "nope", "--end", "1"],
        ["client", "--port", "1", "query", "--tenant", "t",
         "--start", "nope", "--end", "1"],
        ["client", "--port", "1", "insert", "--tenant", "t", "--object-id", "1",
         "--start", "0", "--end", "nope"],
    ],
    ids=["query", "explain", "cluster-query", "client-query", "client-insert"],
)
def test_numbers_are_parsed_by_argparse(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid _parse_number value: 'nope'" in capsys.readouterr().err


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


def _client(capsys, port, *argv):
    """Run ``repro client --port P ARGV``: (exit code, stdout JSON or None,
    stderr JSON or None)."""
    code = main(["client", "--port", str(port), *argv])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


class TestServe:
    """``serve-net`` driven through the CLI, and ``client`` against it."""

    def test_serve_bootstrap_and_commands(self, tmp_path, serve_net, capsys):
        data = str(tmp_path / "ec.bin")
        assert main(["generate", "--dataset", "eclog", "--n", "300", "--out", data]) == 0
        root = tmp_path / "root"
        assert main(
            ["cluster", "build", str(root / "docs"), "--data", data,
             "--shards", "1", "--no-fsync"]
        ) == 0
        domain = load(data).domain()
        start = domain.st + (domain.end - domain.st) // 4
        end = domain.end - (domain.end - domain.st) // 4
        interval = ["--start", str(start), "--end", str(end)]
        assert main(
            ["query", data, "--index", "brute", *interval, "--limit", "0"]
        ) == 0
        expected = ast.literal_eval(capsys.readouterr().out.splitlines()[-1])
        assert expected

        daemon = serve_net(root, "--no-fsync")
        code, out, _ = _client(capsys, daemon.port, "query", "--tenant", "docs", *interval)
        assert code == 0
        assert sorted(out["ids"]) == sorted(expected)

        code, _, _ = _client(
            capsys, daemon.port, "insert", "--tenant", "docs",
            "--object-id", "100000", *interval, "--elements", "x",
        )
        assert code == 0
        code, out, _ = _client(
            capsys, daemon.port, "query", "--tenant", "docs", *interval,
            "--elements", "x",
        )
        assert out["ids"] == [100000]
        assert daemon.stop() == 0

    def test_serve_errors_do_not_kill_the_loop(self, tmp_path, serve_net, capsys):
        daemon = serve_net(tmp_path / "root", "--create", "t", "--index", "brute",
                           "--no-fsync")
        insert = ["insert", "--tenant", "t", "--object-id", "1",
                  "--start", "0", "--end", "10", "--elements", "a"]
        assert _client(capsys, daemon.port, *insert)[0] == 0
        code, _, err = _client(capsys, daemon.port, *insert)
        assert (code, err["error"]["code"]) == (1, "conflict")
        code, _, err = _client(
            capsys, daemon.port, "delete", "--tenant", "t", "--object-id", "99"
        )
        assert (code, err["error"]["code"]) == (1, "not_found")
        code, out, _ = _client(
            capsys, daemon.port, "query", "--tenant", "t", "--start", "0", "--end", "10"
        )
        assert (code, out["ids"]) == (0, [1])

    def test_serve_state_survives_restart(self, tmp_path, serve_net, capsys):
        root = tmp_path / "root"
        daemon = serve_net(root, "--create", "t", "--index", "brute", "--no-fsync")
        assert _client(
            capsys, daemon.port, "insert", "--tenant", "t", "--object-id", "7",
            "--start", "0", "--end", "5", "--elements", "x,y",
        )[0] == 0
        assert daemon.stop() == 0
        daemon = serve_net(root, "--no-fsync")
        code, out, _ = _client(
            capsys, daemon.port, "query", "--tenant", "t",
            "--start", "0", "--end", "10", "--elements", "x",
        )
        assert (code, out["ids"]) == (0, [7])


class TestGoldenDocuments:
    """What the human edge prints, line for line as it did when answers
    were id lists: the CLI turns each answer array into a list there."""

    QUERY = ["--start", "2", "--end", "4", "--elements", "a,c"]

    def test_query(self, data_file, capsys):
        assert main(["query", data_file, "--index", "irhint-perf", *self.QUERY]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"3 results in \d+\.\d\d ms", lines[0])
        assert lines[1:] == ["[2, 4, 7]"]

    def test_cluster_query(self, data_file, tmp_path, capsys):
        directory = str(tmp_path / "c")
        assert main(["cluster", "build", directory, "--data", data_file, "--index", "tif",
                     "--shards", "2", "--no-fsync"]) == 0
        capsys.readouterr()
        assert main(["cluster", "query", directory, *self.QUERY]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"3 results in \d+\.\d\d ms \(1/2 shards: g0001-s01\)", lines[0])
        assert lines[1:] == ["[2, 4, 7]"]

    def test_explain(self, data_file, capsys):
        assert main(["explain", data_file, "--index", "irhint-perf", *self.QUERY]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "explain irHINT (performance): q=[2, 4] d=['a', 'c'] → 3 results",
            "  scan I[a]                    scanned=4        touched=1     candidates=3",
            "  ∩ I[c]                       scanned=7        touched=1     candidates=3",
            "  table: none",
            "  m: 0",
        ]

    def test_client_query(self, tmp_path, serve_net, capsys):
        daemon = serve_net(tmp_path / "root", "--create", "t", "--index", "brute", "--no-fsync")
        for object_id in (7, 70_000):
            assert _client(
                capsys, daemon.port, "insert", "--tenant", "t", "--object-id", str(object_id),
                "--start", "0", "--end", "5", "--elements", "x",
            )[0] == 0
        for elements, count, ids in (("x", 2, "[\n    7,\n    70000\n  ]"), ("y", 0, "[]")):
            assert main(["client", "--port", str(daemon.port), "query", "--tenant", "t",
                         "--start", "0", "--end", "10", "--elements", elements]) == 0
            assert capsys.readouterr().out == (
                "{\n"
                '  "complete": true,\n'
                f'  "count": {count},\n'
                f'  "ids": {ids},\n'
                '  "shards_answered": 1,\n'
                '  "shards_planned": 1\n'
                "}\n"
            )


class TestRecover:
    def test_recover_reports_and_checkpoints(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        with DurableIndexStore.open(store_dir, index_key="brute") as store:
            store.insert(make_object(1, 0, 5, {"a"}))
        assert main(["recover", store_dir, "--checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "1 live objects" in out
        assert "checkpointed recovered state" in out

    def test_recover_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nope")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not a directory" in err


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

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.generators.datasets import available_datasets
from repro.io.edgelist import write_hyperedge_list
from repro.hypergraph.builders import hypergraph_from_edge_lists


@pytest.fixture
def hyperedge_file(tmp_path, paper_example_unlabelled):
    path = tmp_path / "example.hel"
    write_hyperedge_list(paper_example_unlabelled, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        extra_args = {
            "slinegraph": ["--s", "2"],
            "components": ["--s", "2"],
            "query": ["--s", "2"],
            "sweep": ["--s-max", "4"],
        }
        for command in (
            "datasets", "stats", "slinegraph", "components",
            "variants", "query", "sweep",
        ):
            args = parser.parse_args([command] + extra_args.get(command, []))
            assert args.command == command

    def test_shared_flag_groups_keep_one_default_per_flag(self):
        """serve/replicate share the listener flags, every command that
        dials a peer the dial flags; the selectors of the deleted paths
        are gone."""
        parser = build_parser()
        serve = parser.parse_args(["serve", "--path", "idx", "--listen", "h:0"])
        connect = parser.parse_args(["connect", "--address", "h:1"])
        replicate = parser.parse_args(["replicate", "--from", "h:1", "--store", "m"])
        stats = parser.parse_args(["stats", "--address", "h:1"])
        trace = parser.parse_args(["trace", "--address", "h:1"])
        for args in (serve, replicate):
            assert (args.max_connections, args.workers) == (32, 4)
            assert args.metrics_port is None and args.chaos is False
        for args in (connect, replicate, stats, trace):
            assert (args.timeout, args.connect_retries) == (30.0, 40)
        for argv in (
            ["serve", "--path", "idx"],
            ["serve", "--path", "idx", "--listen", "h:0", "--materialize"],
            ["serve", "--path", "idx", "--listen", "h:0", "--requests", "r"],
            ["serve", "--path", "idx", "--listen", "h:0", "--slow-query-ms", "5"],
            ["index", "query", "--path", "idx", "--s", "2"],
            ["centrality", "--s", "2"],
            ["replicate", "--from", "h:1", "--store", "m", "--protocol", "1"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(available_datasets())

    def test_stats_on_file(self, hyperedge_file, capsys):
        assert main(["stats", "--input", hyperedge_file]) == 0
        assert "|E|=" in capsys.readouterr().out

    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "email-euall", "--scale", "0.1"]) == 0
        assert "|V|=" in capsys.readouterr().out

    def test_stats_requires_an_input(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_stats_rejects_both_inputs(self, hyperedge_file):
        with pytest.raises(SystemExit):
            main(["stats", "--input", hyperedge_file, "--dataset", "email-euall"])

    def test_slinegraph_to_stdout(self, hyperedge_file, capsys):
        assert main(["slinegraph", "--input", hyperedge_file, "--s", "2"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        # Figure 2, s=2: three edges with their overlap counts.
        assert sorted(lines) == ["0 1 2", "0 2 3", "1 2 3"]

    def test_slinegraph_to_file(self, hyperedge_file, tmp_path, capsys):
        out_path = tmp_path / "lg.txt"
        assert main(
            ["slinegraph", "--input", hyperedge_file, "--s", "1", "--output", str(out_path)]
        ) == 0
        content = out_path.read_text().splitlines()
        assert content[0].startswith("#")
        assert len(content) == 1 + 4  # header + four s=1 edges

    def test_components(self, hyperedge_file, capsys):
        assert main(["components", "--input", hyperedge_file, "--s", "2"]) == 0
        out = capsys.readouterr().out
        assert "s-connected components" in out
        assert "size=3" in out

    def test_variants_on_small_dataset(self, capsys):
        assert main(
            [
                "variants",
                "--dataset",
                "email-euall",
                "--scale",
                "0.1",
                "--s",
                "2",
                "--workers",
                "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1CN" in out and "2BA" in out

    def test_query(self, hyperedge_file, capsys):
        assert main(
            [
                "query",
                "--input",
                hyperedge_file,
                "--s",
                "2",
                "--metric",
                "pagerank",
                "--top",
                "2",
            ]
        ) == 0
        assert capsys.readouterr().out == (
            "L_2: 3 edges over 4 active hyperedges "
            "(index: 4 weighted pairs, max s = 3)\n"
            "top 2 hyperedges by pagerank (s=2)\n"
            "  0\t0.333333\n"
            "  1\t0.333333\n"
        )

    def test_query_ranks_by_betweenness(self, hyperedge_file, capsys):
        """The ranking the deleted ``centrality`` command printed for
        ``--measure betweenness --s 1 --top 2``, now from ``query``."""
        assert main(
            [
                "query",
                "--input",
                hyperedge_file,
                "--s",
                "1",
                "--metric",
                "betweenness",
                "--top",
                "2",
            ]
        ) == 0
        ranking = capsys.readouterr().out.split("\n", 1)[1]
        assert ranking == (
            "top 2 hyperedges by betweenness (s=1)\n"
            "  2\t0.666667\n"
            "  0\t0.000000\n"
        )

    def test_query_takes_one_input(self, hyperedge_file, tmp_path):
        with pytest.raises(SystemExit, match="one of --dataset, --input or --path"):
            main(
                [
                    "query", "--input", hyperedge_file,
                    "--path", str(tmp_path), "--s", "2",
                ]
            )

    def test_query_reports_index_stats(self, hyperedge_file, capsys):
        assert main(["query", "--input", hyperedge_file, "--s", "1"]) == 0
        out = capsys.readouterr().out
        # Paper example: four weighted overlap pairs, largest overlap is 3.
        assert "4 weighted pairs" in out
        assert "max s = 3" in out

    def test_sweep(self, hyperedge_file, capsys):
        assert main(
            ["sweep", "--input", hyperedge_file, "--s-min", "1", "--s-max", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep s=1..4" in out
        assert "components" in out
        # Figure 2 edge counts per s: 4, 3, 2, 0.
        rows = [ln.split() for ln in out.splitlines() if ln and ln[0].isdigit()]
        assert [int(row[2]) for row in rows] == [4, 3, 2, 0]

    def test_sweep_without_metrics(self, hyperedge_file, capsys):
        assert main(
            ["sweep", "--input", hyperedge_file, "--s-max", "3", "--metrics", ""]
        ) == 0
        out = capsys.readouterr().out
        assert "components" not in out


class TestIndexCommands:
    @pytest.fixture
    def store_dir(self, hyperedge_file, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(
            ["index", "build", "--input", hyperedge_file, "--path", path, "--shards", "2"]
        ) == 0
        capsys.readouterr()
        return path

    def test_index_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])

    def test_build_reports_snapshot(self, hyperedge_file, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["index", "build", "--input", hyperedge_file, "--path", path]) == 0
        out = capsys.readouterr().out
        # Paper example: 4 weighted pairs over 4 hyperedges, max overlap 3.
        assert "4 pairs over 4 hyperedges" in out
        assert "max s = 3" in out

    def test_info(self, store_dir, capsys):
        assert main(["index", "info", "--path", store_dir]) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(None, 1) for line in out.splitlines() if line.strip()
        )
        assert fields["format_version"] == "3"
        assert fields["num_pairs"] == "4"
        assert fields["num_shards"] == "2"
        assert fields["wal_records"] == "0"

    def test_query_warm_serves(self, store_dir, capsys):
        assert main(
            ["query", "--path", store_dir, "--s", "2", "--metric", "pagerank"]
        ) == 0
        banner, ranking = capsys.readouterr().out.split("\n", 1)
        assert banner == (
            "L_2: 3 edges over 4 active hyperedges "
            "(index: 4 weighted pairs, max s = 3)"
        )
        assert ranking == (
            "top 3 hyperedges by pagerank (s=2)\n"
            "  0\t0.333333\n"
            "  1\t0.333333\n"
            "  2\t0.333333\n"
        )

    def test_compact(self, store_dir, capsys):
        assert main(["index", "compact", "--path", store_dir]) == 0
        out = capsys.readouterr().out
        assert "compacted 0 WAL records into generation 1" in out


class TestIndexErrorPaths:
    """Failure modes of the store-backed subcommands (``index``, ``query
    --path``): missing store directory, fingerprint mismatch, corrupt
    manifest."""

    @pytest.fixture
    def store_dir(self, hyperedge_file, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["index", "build", "--input", hyperedge_file, "--path", path]) == 0
        capsys.readouterr()
        return path

    def test_info_on_missing_store_dir(self, tmp_path):
        from repro.store import StoreFormatError

        with pytest.raises(StoreFormatError, match="no snapshot manifest"):
            main(["index", "info", "--path", str(tmp_path / "nowhere")])

    def test_query_on_missing_store_dir(self, tmp_path):
        from repro.store import StoreFormatError

        with pytest.raises(StoreFormatError, match="no snapshot manifest"):
            main(["query", "--path", str(tmp_path / "nowhere"), "--s", "2"])

    def test_compact_on_missing_store_dir(self, tmp_path):
        from repro.store import StoreFormatError

        with pytest.raises(StoreFormatError, match="no snapshot manifest"):
            main(["index", "compact", "--path", str(tmp_path / "nowhere")])

    def test_query_detects_fingerprint_mismatch(self, store_dir):
        """A hypergraph swapped in behind the snapshot's back must be
        refused, not silently served with the stale index."""
        import os

        from repro.hypergraph.builders import hypergraph_from_edge_lists
        from repro.io.serialization import save_hypergraph_npz
        from repro.store import StoreError, read_manifest

        other = hypergraph_from_edge_lists([[0, 1], [1, 2, 3]], num_vertices=4)
        copy = read_manifest(store_dir).hypergraph_file
        save_hypergraph_npz(other, os.path.join(store_dir, copy))
        with pytest.raises(StoreError, match="inconsistent"):
            main(["query", "--path", store_dir, "--s", "2"])

    def test_corrupt_manifest_is_reported(self, store_dir, capsys):
        import os

        from repro.store import StoreFormatError
        from repro.store.format import MANIFEST_NAME

        with open(os.path.join(store_dir, MANIFEST_NAME), "w") as handle:
            handle.write("{not json")
        with pytest.raises(StoreFormatError, match="not valid JSON"):
            main(["index", "info", "--path", store_dir])

    def test_unsupported_format_version_is_reported(self, store_dir):
        import json
        import os

        from repro.store import StoreFormatError
        from repro.store.format import MANIFEST_NAME

        path = os.path.join(store_dir, MANIFEST_NAME)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 99
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreFormatError, match="format version 99"):
            main(["index", "info", "--path", store_dir])


class TestSingleWriterProtocol:
    """The store commands share a store with a live ``QueryService``
    writer: readers open read-only, writers take the lock first."""

    @pytest.fixture
    def store_dir(self, hyperedge_file, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["index", "build", "--input", hyperedge_file, "--path", path]) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize(
        "argv", [["index", "info"], ["query", "--s", "1"]], ids=["info", "query"]
    )
    def test_readers_leave_a_live_writers_torn_tail(self, store_dir, argv):
        import os

        from repro.service import QueryService
        from repro.store.format import WAL_NAME
        from repro.store.wal import _frame

        wal_path = os.path.join(store_dir, WAL_NAME)
        with QueryService(store_dir) as writer:
            writer.submit_add([0, 5]).result()
            frame = _frame(2, {"op": "remove", "edge_id": 0})
            with open(wal_path, "ab") as handle:  # the writer's in-flight append
                handle.write(frame[: len(frame) // 2])
            size = os.path.getsize(wal_path)
            assert main([*argv, "--path", store_dir]) == 0
            assert os.path.getsize(wal_path) == size

    @pytest.mark.parametrize("command", ["build", "compact"])
    def test_writers_refuse_a_held_lock(self, store_dir, hyperedge_file, command):
        from repro.service import QueryService
        from repro.store import read_manifest

        argv = ["index", command, "--path", store_dir]
        if command == "build":
            argv += ["--input", hyperedge_file]
        with QueryService(store_dir):
            with pytest.raises(SystemExit) as refused:
                main(argv)
        assert "is held by QueryService" in str(refused.value.code)
        assert read_manifest(store_dir).generation == 0


class TestConnectCommand:
    """``connect`` against an in-process writer / read-only ``SocketServer``."""

    @pytest.fixture
    def store_dir(self, hyperedge_file, tmp_path, capsys):
        path = str(tmp_path / "idx")
        assert main(["index", "build", "--input", hyperedge_file, "--path", path]) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def serving(store_dir, read_only=False):
        from repro.service import QueryService, SocketServer

        service = QueryService(store_dir, read_only=read_only)
        return service, SocketServer(service, port=0).start()

    def connect(self, store_dir, argv, read_only=False):
        service, server = self.serving(store_dir, read_only=read_only)
        try:
            return main(["connect", "--address", f"{server.host}:{server.port}", *argv])
        finally:
            server.close()
            service.close()

    def test_connect_proxies_a_request_file(self, store_dir, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                [
                    json.dumps({"op": "metric", "s": 2, "metric": "pagerank"}),
                    json.dumps({"op": "add", "members": [0, 1, 2], "wait": True}),
                    json.dumps({"op": "flush"}),
                    json.dumps({"op": "components", "s": 1}),
                    "not json",
                    json.dumps({"op": "stop"}),
                    json.dumps({"op": "components", "s": 1}),  # after stop: ignored
                ]
            )
            + "\n"
        )
        assert self.connect(store_dir, ["--requests", str(requests)]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 5
        assert lines[0]["values"]  # metric response
        assert lines[1]["edge_id"] == 4
        assert lines[2]["flushed"]
        assert lines[3]["count"] >= 1
        assert not lines[4]["ok"] and "bad JSON" in lines[4]["error"]

    def test_connect_read_only_server_rejects_updates(
        self, store_dir, tmp_path, capsys
    ):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"op": "add", "members": [0, 1]}) + "\n")
        assert self.connect(
            store_dir, ["--requests", str(requests)], read_only=True
        ) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1
        assert not lines[0]["ok"] and "read-only" in lines[0]["error"]

    def test_connect_one_shot_metric(self, store_dir, capsys):
        service, server = self.serving(store_dir)
        address = f"{server.host}:{server.port}"
        try:
            assert main(
                [
                    "connect", "--address", address,
                    "--s", "2", "--metric", "pagerank", "--top", "2",
                ]
            ) == 0
        finally:
            server.close()
            service.close()
        assert capsys.readouterr().out == (
            f"3 hyperedges in E_2 served by {address} (writer, generation 0)\n"
            "top 2 hyperedges by pagerank (s=2)\n"
            "  0\t0.333333\n"
            "  1\t0.333333\n"
        )

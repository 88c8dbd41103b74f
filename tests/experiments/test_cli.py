"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.datasets.fixtures import figure2_graph
from repro.graph.io import write_csv


class TestExperimentCommands:
    def test_table3(self, capsys):
        code = main(["table3", "--scale", "0.15", "--datasets", "Facebook"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Facebook" in out

    def test_result_saved(self, tmp_path, capsys):
        code = main(
            [
                "table3", "--scale", "0.15", "--datasets", "Facebook",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        saved = json.loads((tmp_path / "table3.json").read_text())
        assert saved["name"] == "table3"

    def test_motif_filter(self, capsys):
        code = main(
            [
                "table4", "--scale", "0.15", "--datasets", "Facebook",
                "--motifs", "M(3,2)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M(3,2)" in out
        assert "M(5,4)" not in out

    def test_markdown_flag(self, capsys):
        main(["table3", "--scale", "0.15", "--datasets", "Facebook", "--markdown"])
        out = capsys.readouterr().out
        assert "|" in out


class TestFindCommand:
    @pytest.fixture
    def edges_file(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_csv(figure2_graph(), str(path))
        return str(path)

    def test_find_catalog_motif(self, edges_file, capsys):
        code = main(
            ["find", edges_file, "--motif", "M(3,3)", "--delta", "10",
             "--phi", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 instances" in out
        record = json.loads(out.splitlines()[-1])
        assert record["flow"] == 10.0

    def test_find_custom_path(self, edges_file, capsys):
        code = main(
            ["find", edges_file, "--motif", "0-1-2-0", "--delta", "10",
             "--phi", "7"]
        )
        assert code == 0
        assert "1 instances" in capsys.readouterr().out

    def test_find_top_k(self, edges_file, capsys):
        code = main(
            ["find", edges_file, "--motif", "M(3,3)", "--delta", "10",
             "--top", "2"]
        )
        assert code == 0
        assert "top" in capsys.readouterr().out

    def test_bad_motif_spec(self, edges_file, capsys):
        code = main(
            ["find", edges_file, "--motif", "garbage", "--delta", "10"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--jobs", "0"], ["--jobs", "-3"], ["--shards", "0"],
         ["--jobs", "2", "--shards", "-1"]],
        ids=" ".join,
    )
    def test_find_rejects_counts_below_one(self, edges_file, flag, capsys):
        """``--jobs``/``--shards`` below 1 exit 2 with a message instead
        of being clamped (or silently picking the serial engine)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["find", edges_file, "--delta", "10"] + flag)
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--backend", "thread"], ["--backend", "process"],
         ["--backend", "serial"], ["--no-shm"]],
        ids=" ".join,
    )
    def test_find_removed_parallel_flags_rejected(
        self, edges_file, flag, capsys
    ):
        """``--backend`` and ``--no-shm`` are gone (``--jobs`` picks how
        shards run): argparse rejects them instead of ignoring them."""
        with pytest.raises(SystemExit) as excinfo:
            main(["find", edges_file, "--delta", "10", "--jobs", "2"] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_find_parallel_matches_serial(self, edges_file, capsys):
        args = ["find", edges_file, "--motif", "M(3,3)", "--delta", "10"]

        def records():
            out = capsys.readouterr().out.splitlines()
            return sorted(line for line in out if line.startswith("{"))

        assert main(args) == 0
        serial = records()
        assert main(args + ["--jobs", "2", "--shards", "3"]) == 0
        assert records() == serial != []

    def test_find_limit_prints_the_same_instances_on_every_engine(
        self, tmp_path, capsys
    ):
        """``--limit`` keeps the earliest instances (by start time, then
        canonical key), not the first ones an engine happened to return:
        a sharded run returns them shard-major."""
        import random

        rng = random.Random(0)
        path = tmp_path / "edges.csv"
        with open(path, "w") as fh:
            fh.write("src,dst,time,flow\n")
            for _ in range(400):
                u, v = rng.sample(range(12), 2)
                fh.write(
                    f"n{u},n{v},{rng.randrange(0, 200)},{rng.randint(1, 9)}\n"
                )
        args = ["find", str(path), "--motif", "M(3,2)", "--delta", "30",
                "--phi", "2", "--limit", "50"]

        def printed(extra):
            assert main(args + extra) == 0
            out = capsys.readouterr().out.splitlines()
            return [json.loads(line) for line in out if line.startswith("{")]

        serial = printed([])
        assert len(serial) == 50
        starts = [
            min(t for edge in r["edges"] for t, _ in edge["events"])
            for r in serial
        ]
        assert starts == sorted(starts)
        assert printed(["--shards", "2"]) == serial
        assert printed(["--jobs", "2", "--shards", "3"]) == serial


class TestStreamCommand:
    @pytest.fixture
    def edges_file(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_csv(figure2_graph(), str(path))
        return str(path)

    def test_stream_equals_find(self, edges_file, capsys):
        code = main(
            ["stream", edges_file, "--motif", "M(3,3)", "--delta", "10",
             "--phi", "7"]
        )
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 1
        assert records[0]["flow"] == 10.0
        assert "1 instances emitted" in captured.err

    def test_stream_batched_polling(self, edges_file, capsys):
        code = main(
            ["stream", edges_file, "--motif", "M(3,3)", "--delta", "10",
             "--phi", "7", "--batch", "5"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1

    def test_stream_follow_drains_appended_rows(self, tmp_path, capsys):
        """--follow keeps reading rows appended after startup; --max-idle
        bounds the wait so the test terminates."""
        path = tmp_path / "live.csv"
        path.write_text("src,dst,time,flow\na,b,1,5\n")
        import threading

        def late_writer():
            import time

            time.sleep(0.2)
            with open(path, "a") as fh:
                fh.write("b,c,3,4\nz,w,50,1\n")

        writer = threading.Thread(target=late_writer)
        writer.start()
        code = main(
            ["stream", str(path), "--follow", "--interval", "0.05",
             "--max-idle", "0.6", "--motif", "0-1-2", "--delta", "10"]
        )
        writer.join()
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 1  # a->b->c completed by the late rows
        assert records[0]["flow"] == 4.0

    def test_stream_out_of_order_dropped_by_default(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,5,1\na,b,4,1\nz,w,50,1\n")
        code = main(["stream", str(path), "--motif", "0-1", "--delta", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "2 events" in captured.err  # the t=4 row was dropped
        assert "1 late events dropped" in captured.err

    def test_stream_out_of_order_raises_under_strict(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,5,1\na,b,4,1\n")
        code = main(
            ["stream", str(path), "--motif", "0-1", "--delta", "2", "--strict"]
        )
        assert code == 2
        assert "out-of-order" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--on-error", "skip"], ["--mode", "rebuild"]]
    )
    def test_stream_removed_flags_rejected(self, edges_file, flag, capsys):
        """``--on-error`` (use ``--strict``) and ``--mode`` (one detector)
        are gone: argparse rejects them instead of ignoring them."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["stream", edges_file, "--motif", "0-1", "--delta", "2"]
                + flag
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stream_follow_rejects_stdin(self, capsys):
        code = main(["stream", "-", "--follow", "--motif", "0-1", "--delta", "2"])
        assert code == 2
        assert "follow" in capsys.readouterr().err

    def test_stream_malformed_row_quarantined_by_default(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,1,notaflow\na,b,2,1\nb,c,3,1\n")
        code = main(["stream", str(path), "--motif", "0-1", "--delta", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "quarantined line 1" in captured.err
        assert "1 malformed lines quarantined" in captured.err
        assert len(captured.out.splitlines()) == 2  # both clean edges matched

    def test_stream_malformed_row_aborts_under_strict(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,1,notaflow\n")
        code = main(
            ["stream", str(path), "--motif", "0-1", "--delta", "2", "--strict"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStreamResilience:
    """Error paths and durability features of the stream command."""

    def test_stream_truncated_gzip_reports_stream_failure(
        self, tmp_path, capsys
    ):
        import gzip

        path = tmp_path / "edges.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("a,b,1,5\nb,c,2,5\n" * 200)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # cut the gzip stream
        code = main(["stream", str(path), "--motif", "0-1", "--delta", "2"])
        assert code == 1
        assert "input stream failed" in capsys.readouterr().err

    def test_stream_follow_survives_disappearing_file(self, tmp_path, capsys):
        """tail -F semantics: deletion followed by recreation must not
        kill the stream — rows from the new file generation are read."""
        import os
        import threading
        import time

        path = tmp_path / "live.csv"
        path.write_text("a,b,1,5\n")

        def rotate():
            time.sleep(0.3)
            os.remove(path)
            time.sleep(0.3)
            path.write_text("b,c,3,4\nz,w,50,1\n")

        rotator = threading.Thread(target=rotate)
        rotator.start()
        code = main(
            ["stream", str(path), "--follow", "--interval", "0.05",
             "--max-idle", "1.0", "--motif", "0-1-2", "--delta", "10"]
        )
        rotator.join()
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 1  # a->b->c completed across the rotation
        assert records[0]["flow"] == 4.0

    def test_stream_slack_recovers_late_event(self, tmp_path, capsys):
        path = tmp_path / "ooo.csv"
        path.write_text("a,b,1,5\nb,c,4,5\na,b,3,5\nb,c,6,5\n")
        code = main(
            ["stream", str(path), "--motif", "0-1-2", "--delta", "10",
             "--slack", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 1
        assert records[0]["flow"] == 10.0  # the t=3 event was re-sequenced
        assert "late events dropped" not in captured.err

    def test_stream_checkpoint_resume_equals_uninterrupted(
        self, tmp_path, capsys
    ):
        whole = "a,b,1,5\nb,c,2,5\na,b,3,5\nb,c,4,5\na,b,5,5\nb,c,6,5\n"
        (tmp_path / "whole.csv").write_text(whole)
        (tmp_path / "part1.csv").write_text(whole[: len(whole) // 2])
        (tmp_path / "part2.csv").write_text(whole[len(whole) // 2 :])
        ck = tmp_path / "state.json"

        assert main(
            ["stream", str(tmp_path / "whole.csv"), "--motif", "0-1-2",
             "--delta", "10"]
        ) == 0
        expected = sorted(capsys.readouterr().out.splitlines())

        assert main(
            ["stream", str(tmp_path / "part1.csv"), "--motif", "0-1-2",
             "--delta", "10", "--checkpoint", str(ck)]
        ) == 0
        captured = capsys.readouterr()
        assert ck.exists()
        assert "checkpoint" in captured.err
        out = captured.out.splitlines()

        assert main(
            ["stream", str(tmp_path / "part2.csv"), "--motif", "0-1-2",
             "--delta", "10", "--resume", str(ck)]
        ) == 0
        out += capsys.readouterr().out.splitlines()
        assert sorted(out) == expected

    def test_stream_checkpoint_is_fsynced(self, tmp_path, capsys, monkeypatch):
        """The tmp file is synced before its rename, the directory after."""
        import os
        import stat

        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            calls.append(("dir" if stat.S_ISDIR(info.st_mode) else "file",
                          info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", str(dst)))
            real_replace(src, dst)

        (tmp_path / "in.csv").write_text("a,b,1,5\nb,c,2,5\n")
        ck = tmp_path / "state.json"
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert main(
            ["stream", str(tmp_path / "in.csv"), "--motif", "0-1-2",
             "--delta", "10", "--checkpoint", str(ck)]
        ) == 0
        capsys.readouterr()
        at = calls.index(("replace", str(ck)))
        # the renamed file keeps its inode: it is the one synced before
        assert ("file", os.stat(ck).st_ino) in calls[:at]
        assert ("dir", os.stat(tmp_path).st_ino) in calls[at + 1:]

    def test_stream_resume_rejects_garbage_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"not\": \"a checkpoint\"}")
        (tmp_path / "in.csv").write_text("a,b,1,5\n")
        code = main(
            ["stream", str(tmp_path / "in.csv"), "--motif", "0-1",
             "--delta", "2", "--resume", str(bad)]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_stream_resume_rejects_missing_checkpoint(self, tmp_path, capsys):
        (tmp_path / "in.csv").write_text("a,b,1,5\n")
        code = main(
            ["stream", str(tmp_path / "in.csv"), "--motif", "0-1",
             "--delta", "2", "--resume", str(tmp_path / "nope.json")]
        )
        assert code == 2

"""Tests for the ``python -m repro`` command-line entry point."""

import json

import pytest

from repro.__main__ import ORACLES, build_parser, main, make_oracle
from repro.serve.daemon import ServeDaemon


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.chip == "c1"
        assert args.oracle == "CD"
        assert not hasattr(args, "workers")  # batches run in-process
        assert not args.cache

    def test_rejects_unknown_chip(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--chip", "c99"])

    def test_make_oracle(self):
        for name in ORACLES:
            assert make_oracle(name).name == name
        with pytest.raises(ValueError):
            make_oracle("XX")


class TestMain:
    def test_list_chips(self, capsys):
        assert main(["--list-chips"]) == 0
        out = capsys.readouterr().out
        for chip in ("c1", "c8"):
            assert chip in out

    def test_smoke_route_row(self, capsys):
        assert main(["--chip", "c1", "--net-scale", "0.1", "--cache"]) == 0
        captured = capsys.readouterr()
        assert "c1" in captured.out and "ACE4" in captured.out
        assert "re-route cache" in captured.err

    def test_sharded_cache_route_reports_its_cache(self, capsys):
        """The stderr line used to be silently missing for ``--shards K``."""
        assert main(["--chip", "c1", "--net-scale", "0.4", "--cache", "--shards", "2"]) == 0
        assert "re-route cache: 1/18 hits" in capsys.readouterr().err

    def test_smoke_route_json(self, capsys):
        assert main(["--chip", "c1", "--net-scale", "0.1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["chip"] == "c1"
        assert record["method"] == "CD"
        assert "WS" in record and "Walltime" in record and "Nets" in record

    def test_checkpoint_flag_writes_and_resumes(self, capsys, tmp_path):
        path = str(tmp_path / "run.ckpt")
        args = ["--chip", "c1", "--net-scale", "0.1", "--json", "--checkpoint", path]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert (tmp_path / "run.ckpt").exists()
        # Resuming a completed checkpoint skips routing and reproduces the
        # metrics (walltime aside).
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "resumed from" in captured.err
        second = json.loads(captured.out)
        for field in ("WS", "TNS", "ACE4", "WL", "Vias", "Overflow", "Objective"):
            assert second[field] == first[field]

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_route_alias_with_shards(self, capsys):
        assert main(["route", "--chip", "c1", "--net-scale", "0.4",
                     "--shards", "4", "--json"]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out)
        assert record["chip"] == "c1" and record["Nets"] == 18
        assert "shards: 4 regions" in captured.err

    def test_shard_parity_flag(self, capsys):
        assert main(["--chip", "c1", "--net-scale", "0.3", "--shards", "2",
                     "--shard-parity", "--json"]) == 0
        captured = capsys.readouterr()
        assert "(parity mode)" in captured.err
        assert json.loads(captured.out)["Nets"] == 14

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--shards", "0"])


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rounds", "0"], "must be a positive"),
            (["submit", "--rounds", "0"], "must be a positive"),
            (["submit", "--shard-workers", "0"], "must be a positive"),
            (["submit", "--net-scale", "0"], "must be a positive"),
            (["serve", "--job-workers", "0"], "must be a positive"),
            (["soak", "--rounds", "0"], "must be a positive"),
            (["soak", "--net-scale", "-1"], "must be a positive"),
            (["soak", "--shard-halo", "-3"], "must be a non-negative"),
            (["route", "--shard-halo", "-1"], "must be a non-negative"),
            (["submit", "--chip", "c99"], "invalid choice"),
        ],
    )
    def test_every_parser_validates_counts_the_same_way(self, argv, message, capsys):
        """One-shot, serve and soak parsers take their flow flags -- value
        checks and choice sets included -- from the one table."""
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert message in capsys.readouterr().err


class TestServeSubcommands:
    @pytest.fixture()
    def daemon(self):
        daemon = ServeDaemon(port=0, job_workers=1)
        daemon.start()
        yield daemon
        daemon.shutdown()

    def endpoint(self, daemon):
        host, port = daemon.address
        return ["--host", host, "--port", str(port)]

    def test_submit_status_result_eco_flow(self, capsys, daemon):
        endpoint = self.endpoint(daemon)
        assert (
            main(
                ["submit", *endpoint, "--chip", "c1", "--net-scale", "0.1",
                 "--rounds", "1", "--session", "cli", "--wait"]
            )
            == 0
        )
        job = json.loads(capsys.readouterr().out)
        assert job["status"] == "done"
        assert job["result"]["result"]["chip"] == "c1"
        job_id = job["job_id"]

        assert main(["status", *endpoint, job_id]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "done"
        assert main(["status", *endpoint, "--all"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1
        assert main(["result", *endpoint, job_id]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["session"] == "cli"

        ops = json.dumps(
            [{"op": "move_pin", "net": "n0", "pin": "n0:s0", "x": 1, "y": 1}]
        )
        assert main(["eco", *endpoint, "--session", "cli", "--ops", ops, "--wait"]) == 0
        eco_job = json.loads(capsys.readouterr().out)
        assert eco_job["status"] == "done"
        assert eco_job["result"]["touched"] == ["n0"]

    def test_eco_ops_validation(self, capsys, daemon):
        endpoint = self.endpoint(daemon)
        assert main(["eco", *endpoint, "--session", "s"]) == 2
        assert "exactly one of" in capsys.readouterr().err
        assert main(["eco", *endpoint, "--session", "s", "--ops", "{}"]) == 2
        assert "JSON list" in capsys.readouterr().err

    def test_shutdown_subcommand(self, capsys, daemon):
        assert main(["shutdown", *self.endpoint(daemon)]) == 0
        assert "stopping" in capsys.readouterr().err

    def test_unreachable_daemon_is_an_error(self, capsys):
        assert main(["status", "--port", "1", "--all"]) == 2
        assert "error:" in capsys.readouterr().err

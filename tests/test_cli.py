"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.imtu == 9000 and args.emtu == 1500

    def test_upf_options(self):
        args = build_parser().parse_args(["upf", "--mtu", "3000", "--flows", "10"])
        assert args.mtu == 3000 and args.flows == 10

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_building_the_parser_imports_no_obs_module(self):
        # ``repro --help`` and the non-obs verbs must not pay for the
        # observability layer just to list ``--kind`` choices.
        code = ("import sys; from repro.cli import build_parser; "
                "build_parser(); "
                "print(sorted(m for m in sys.modules if m.startswith('repro.obs')))")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


class TestCommands:
    def test_upf_command(self, capsys):
        assert main(["upf", "--mtu", "1500", "--flows", "50"]) == 0
        out = capsys.readouterr().out
        assert "Gbps" in out and "cycles/packet" in out

    def test_survey_command(self, capsys):
        assert main(["survey", "-n", "20000"]) == 0
        out = capsys.readouterr().out
        assert "fragment delivery OK" in out

    def test_gateway_command(self, capsys):
        assert main(["gateway", "--megabytes", "1"]) == 0
        out = capsys.readouterr().out
        assert "conversion yield" in out
        assert "8960" in out  # raised MSS visible

    def test_fleet_command(self, capsys):
        assert main(["fleet", "--quick", "--workers", "1,2,4",
                     "--loss-drill"]) == 0
        out = capsys.readouterr().out
        assert "fleet_world scaling" in out
        assert "loss drill (crash)" in out
        assert "ok" in out

    def test_fleet_command_json(self, capsys):
        import json

        assert main(["fleet", "--quick", "--workers", "1,4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-fleet-world/1"
        assert [row["shards"] for row in payload["rows"]] == [1, 4]

    def test_fleet_command_rejects_bad_workers(self, capsys):
        # not integers; an empty list; a shard count below one
        for workers in ("x,y", ",", "0,2"):
            assert main(["fleet", "--quick", "--workers", workers]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"bad --workers {workers!r}")
            assert captured.err.count("\n") == 1

    def test_fleet_speedup_gate_needs_a_one_shard_row(self, capsys):
        # Without a 1-shard row the gate says so instead of gating 4-vs-2,
        # and without a 4-shard row it says so instead of passing silently.
        for workers in ("2,4", "1,2"):
            assert main(["fleet", "--quick", "--workers", workers,
                         "--min-speedup-4", "100"]) == 0
            assert "--min-speedup-4 not applied" in capsys.readouterr().err
        assert main(["fleet", "--quick", "--workers", "1,4",
                     "--min-speedup-4", "100"]) == 1
        assert "FAIL: modeled speedup at 4 shards" in capsys.readouterr().err

"""Tests for the top-level CLI and package metadata."""

import subprocess
import sys

import pytest

import repro
from repro.__main__ import main
from repro.experiments.runner import SimulationSettings

#: ``--quick`` scales this to 100 cycles: enough to print a table.
TINY = SimulationSettings(cycles=1_000, warmup=200, seed=1)


class TestMain:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "DATE 2006" in out
        assert "fig10" in out

    def test_no_args_prints_info(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_figures_dispatch(self, capsys):
        assert main(["figures", "fig2"]) == 0
        assert "spidergon" in capsys.readouterr().out

    def test_ablations_dispatch(self, capsys):
        assert main(["figures", "ablation_mesh_policy"]) == 0
        assert "irregular" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2
        # The studies run as artefacts of ``figures`` and single
        # points through ``run``; their old commands are gone, with
        # no alias.
        for command in ("circulant", "mesh3d", "drain", "chaos", "trace"):
            assert main([command]) == 2
            assert f"unknown command {command!r}" in capsys.readouterr().out

    def test_campaign_dispatch(self, tmp_path, capsys):
        import json

        spec = {
            "name": "cli-smoke",
            "cycles": 600,
            "warmup": 100,
            "topologies": ["ring8"],
            "patterns": ["uniform"],
            "rates": [0.1],
            "source_queue_packets": 8,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        csv_path = tmp_path / "out.csv"
        assert main(["campaign", str(spec_path), str(csv_path)]) == 0
        assert csv_path.exists()
        assert "1 runs executed" in capsys.readouterr().out

    def test_campaign_parallel_flags(self, tmp_path, capsys):
        import json

        spec = {
            "name": "cli-parallel",
            "cycles": 600,
            "warmup": 100,
            "topologies": ["ring8"],
            "patterns": ["uniform"],
            "rates": [0.05, 0.1],
            "source_queue_packets": 8,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        assert main(
            ["campaign", str(spec_path), str(serial_csv), "--no-cache"]
        ) == 0
        assert main(
            [
                "campaign",
                str(spec_path),
                str(parallel_csv),
                "--workers",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "workers 2" in out
        serial = sorted(serial_csv.read_text().strip().splitlines())
        parallel = sorted(parallel_csv.read_text().strip().splitlines())
        assert serial == parallel
        assert (tmp_path / "cache").is_dir()
        assert not (tmp_path / ".repro-cache").exists()

    def test_topologies_dispatch(self, capsys):
        assert main(["topologies"]) == 0
        out = capsys.readouterr().out
        assert "mesh3d" in out
        assert "torus3d4x4x4@tsv2" in out
        assert "faulty" in out

    def test_mesh3d_dispatch(self, capsys, monkeypatch):
        from repro.experiments import figures

        monkeypatch.setattr(figures, "SETTINGS", TINY)
        assert main(["figures", "study_mesh3d_transpose", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "N=64, transpose traffic" in out
        assert "mesh3d4x4x4@tsv4-thr" in out
        assert "torus3d4x4x4@tsv2-lat" in out

    def test_mesh3d_usage_errors(self, capsys):
        # Only the committed configurations are artefacts...
        with pytest.raises(SystemExit) as exc:
            main(["figures", "study_mesh3d"])
        assert exc.value.code == 2
        # ...and a side below the torus3d minimum fails fast.
        from repro.experiments.mesh3d import stacking_study

        with pytest.raises(ValueError, match="side >= 3"):
            stacking_study(2)

    def test_campaign_usage_error(self, capsys):
        assert main(["campaign", "only-one-arg"]) == 2

    def test_routings_dispatch(self, capsys):
        assert main(["routings"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "mesh4x4:adaptive" in out

    def test_drain_smoke(self, capsys, monkeypatch):
        # The positive control is pinned in tests/resilience/test_drain.py.
        from repro.experiments import figures

        monkeypatch.setattr(figures, "SETTINGS", TINY)
        assert main(["figures", "study_drain", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "adaptive+drain-thr" in out
        assert "flits_spun" in out

    def test_drain_usage_error(self, capsys):
        # The study takes no options of its own any more.
        with pytest.raises(SystemExit) as exc:
            main(["figures", "study_drain", "--rates", "0.1"])
        assert exc.value.code == 2

    def test_run_trace_accepts_routing_suffix(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert main(
            [
                "run",
                "ring8:adaptive",
                "uniform",
                "0.05",
                "cycles=400",
                "warmup=0",
                "--trace",
                str(out_path),
            ]
        ) == 0
        assert out_path.exists()

    def test_run_accepts_routing_suffix(self, capsys):
        assert main(
            [
                "run",
                "mesh4x4:adaptive",
                "uniform",
                "0.05",
                "cycles=1200",
                "warmup=200",
                "fail=5:6@400",
                "stall_cycles=2000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "plan: fail 5-6 at cycle 400" in out
        assert "degraded=False" in out

    def test_run_stall_snapshot_counts_every_flit(self, capsys):
        """Faults on a 1-VC mesh wedge traffic in router buffers; the
        printed snapshot accounts for every injected flit."""
        import json

        assert main(
            [
                "run", "mesh4x4", "uniform", "0.1",
                "random_faults=2@5000:4000", "stall_cycles=2000",
            ]
        ) == 1
        line = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("stall snapshot: ")
        )
        snapshot = json.loads(line.removeprefix("stall snapshot: "))
        assert snapshot["flits_buffered"] > 0
        assert snapshot["flits_injected"] == (
            snapshot["flits_consumed"]
            + snapshot["flits_buffered"]
            + snapshot["flits_in_flight"]
            + snapshot["flits_dropped"]
        )

    def test_run_json_equals_run_sweep_point(self, tmp_path, capsys):
        import json

        from repro.experiments.parallel import run_sweep_point
        from repro.experiments.specs import parse_point

        line = [
            "ring8", "hotspot:0", "0.15", "cycles=3000", "warmup=500",
            "fail=0:1@1500:2000", "invariant_check_interval=500",
        ]
        out_path = tmp_path / "result.json"
        assert main(["run", *line, "--json", str(out_path)]) == 0
        expected = run_sweep_point(parse_point(line)).to_dict()
        assert json.loads(out_path.read_text()) == json.loads(
            json.dumps(expected)
        )

    def test_run_usage_errors(self, capsys):
        assert main(["run", "ring8", "uniform"]) == 2
        assert main(["run", "ring8", "uniform", "0.1", "stall=100"]) == 2
        assert "unknown key 'stall'" in capsys.readouterr().err
        assert main(["run", "ring8", "uniform", "0.1", "--limit", "5"]) == 2

    def test_module_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "repro" in completed.stdout


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_api_importable(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert getattr(repro, name) is not None

    def test_star_import_clean(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert "Network" in namespace
        assert "SpidergonTopology" in namespace

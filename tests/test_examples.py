"""Smoke tests: the fast example scripts run end-to-end.

Only the examples that finish in seconds run here; the longer studies
(`saturation_study`, `routing_playground`, `cost_tradeoff`,
`campaign_sweep`, `shared_memory_soc`) are exercised at reduced scale
through the library calls they are built from (see the experiments
suite); their syntax is still checked by compilation.
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestFastExamples:
    def test_quickstart(self):
        completed = run_example("quickstart.py")
        assert completed.returncode == 0, completed.stderr
        assert "Throughput:" in completed.stdout
        assert "spidergon16" in completed.stdout

    def test_topology_explorer(self):
        completed = run_example("topology_explorer.py", "12")
        assert completed.returncode == 0, completed.stderr
        assert "spidergon12" in completed.stdout
        assert "lowest E[D]" in completed.stdout

    def test_irregular_floorplan(self):
        completed = run_example("irregular_floorplan.py")
        assert completed.returncode == 0, completed.stderr
        assert "##" in completed.stdout  # the macro in the ASCII plan
        assert "mesh5x5-irregular21" in completed.stdout

    def test_observability_tour(self):
        completed = run_example("observability_tour.py")
        assert completed.returncode == 0, completed.stderr
        assert "heat table" in completed.stdout
        # The hot-spot's incoming links dominate the utilization.
        assert "Busiest link" in completed.stdout
        assert "hot-spot node 0" in completed.stdout
        assert "Kernel profile" in completed.stdout


class TestAllExamplesCompile:
    @pytest.mark.parametrize(
        "path",
        sorted(EXAMPLES.glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

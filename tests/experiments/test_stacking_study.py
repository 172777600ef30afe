"""Tests for the equal-node-count 2D vs 3D stacking study."""

import pytest

from repro.experiments import parallel
from repro.experiments.mesh3d import stacking_study
from repro.experiments.runner import SimulationSettings

FAST = SimulationSettings(cycles=300, warmup=50, seed=1)


def test_pattern_that_does_not_fit(monkeypatch):
    # Side 3's 2D reference is mesh3x9, which transpose cannot run:
    # the study stops before simulating a point.
    simulated = []
    monkeypatch.setattr(
        parallel, "run_simulation", lambda *a, **k: simulated.append(a)
    )
    with pytest.raises(ValueError, match="'transpose' does not fit mesh3x9"):
        stacking_study(3, pattern="transpose", settings=FAST)
    assert simulated == []


def test_columns_and_notes():
    figure = stacking_study(
        3, tsv_latencies=(2,), rates=(0.1,), settings=FAST
    )
    specs = ["mesh3x9", "mesh3d3x3x3@tsv2", "torus3d3x3x3@tsv2"]
    assert list(figure.series) == [f"{s}-thr" for s in specs] + [
        f"{s}-lat" for s in specs
    ]
    assert figure.notes[0].startswith("mesh3x9: ND 10, E[D] ")
    assert figure.notes[1].startswith("mesh3d3x3x3@tsv2: tsv 2, ND 6, ")

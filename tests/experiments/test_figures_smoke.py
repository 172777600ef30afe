"""Smoke tests for every figure generator (tiny simulation sizes).

Full-fidelity shape assertions live in
``tests/integration/test_paper_claims.py`` and in
``repro.experiments.claims``;
here we verify that every generator produces well-formed FigureData
and that the CLI wiring works.
"""

import pytest

from repro.experiments import figures
from repro.experiments.runner import SimulationSettings
from repro.noc.config import NocConfig

TINY = SimulationSettings(
    cycles=1_200,
    warmup=200,
    config=NocConfig(source_queue_packets=8),
    seed=3,
)


class TestAnalyticalFigures:
    def test_fig2_structure(self):
        figure = figures.figure2(4, 24)
        assert figure.figure_id == "fig2"
        assert len(figure.x_values) == 11
        assert set(figure.series) == {
            "ring",
            "ideal-mesh",
            "real-mesh",
            "irregular-mesh",
            "spidergon",
        }

    def test_fig3_structure(self):
        figure = figures.figure3(4, 24)
        assert figure.figure_id == "fig3"
        assert all(
            len(v) == len(figure.x_values)
            for v in figure.series.values()
        )


class TestSimulationFigures:
    def test_fig5(self):
        figure = figures.figure5(
            settings=TINY, node_counts=(8,), injection_rate=0.05
        )
        assert set(figure.series) == {
            "ring-analytic",
            "ring-sim",
            "spidergon-analytic",
            "spidergon-sim",
            "mesh-analytic",
            "mesh-sim",
        }
        for label in ("ring", "spidergon", "mesh"):
            sim = figure.column(f"{label}-sim")[0]
            analytic = figure.column(f"{label}-analytic")[0]
            assert sim == pytest.approx(analytic, rel=0.35)

    def test_fig6(self):
        figure = figures.figure6(
            settings=TINY, node_counts=(8,), rates=(0.05, 0.3)
        )
        assert set(figure.series) == {"ring8", "spidergon8", "mesh2x4"}
        for values in figure.series.values():
            assert all(v is not None and v >= 0 for v in values)

    def test_fig7(self):
        figure = figures.figure7(
            settings=TINY, node_counts=(8,), rates=(0.05, 0.3)
        )
        for values in figure.series.values():
            assert all(v is None or v > 0 for v in values)

    def test_fig8_series_labels(self):
        figure = figures.figure8(
            settings=TINY, node_counts=(8,), rates=(0.1,)
        )
        assert "ring8-A" in figure.series
        assert "ring8-B" in figure.series
        assert "spidergon8-A" in figure.series
        assert "mesh2x4-A" in figure.series
        assert "mesh2x4-C" in figure.series

    def test_fig9(self):
        figure = figures.figure9(
            settings=TINY, node_counts=(8,), rates=(0.1,)
        )
        assert len(figure.series) == 7  # ring(2) + spidergon(2) + mesh(3)

    def test_fig10(self):
        figure = figures.figure10(
            settings=TINY, node_counts=(8,), rates=(0.1, 0.4)
        )
        for values in figure.series.values():
            assert values[0] > 0

    def test_fig11(self):
        figure = figures.figure11(
            settings=TINY, node_counts=(8,), rates=(0.1, 0.4)
        )
        for values in figure.series.values():
            assert values[0] > 0


class TestCli:
    def test_main_prints_analytical_figure(self, capsys):
        assert figures.main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "spidergon" in out

    def test_main_writes_csv(self, tmp_path, capsys):
        figures.main(["fig3", "--csv", str(tmp_path)])
        capsys.readouterr()
        content = (tmp_path / "fig3.csv").read_text()
        assert content.startswith("N,")

    def test_main_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            figures.main(["fig99"])

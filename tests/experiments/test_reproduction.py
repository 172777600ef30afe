"""The committed ``results/*.csv`` and the paper's claims on them.

No test here simulates: the claims are evaluated on the committed
CSVs, and the ``--check`` CLI runs only on the analytical artefacts.
``python -m repro figures all --csv results --check`` regenerates the
simulated ones too.
"""

import pathlib

import pytest

from repro.analysis.capacity import uniform_capacity
from repro.experiments import claims, figures
from repro.experiments.claims import CLAIMS, failed_claims
from repro.experiments.report import FigureData, to_csv
from repro.experiments.specs import parse_topology_routing
from repro.routing import routing_for

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def committed(name):
    return FigureData.from_csv((RESULTS / f"{name}.csv").read_text())


def test_every_committed_csv_is_an_artefact_with_claims():
    stems = {path.stem for path in RESULTS.glob("*.csv")}
    assert stems == set(figures.ARTEFACTS) == set(CLAIMS)


@pytest.mark.parametrize("name", list(figures.ARTEFACTS))
def test_committed_csv_round_trips(name):
    text = (RESULTS / f"{name}.csv").read_text()
    assert to_csv(FigureData.from_csv(text)) == text


@pytest.mark.parametrize(
    "name, claim",
    [(name, claim) for name, claims in CLAIMS.items() for claim in claims],
)
def test_claim_holds_on_committed_data(name, claim):
    assert CLAIMS[name][claim](committed(name))


@pytest.mark.parametrize(
    "grid, bound", [("mesh3d4x4x4", 63.0), ("torus3d4x4x4", 64.0)]
)
def test_tsv_latency_leaves_the_capacity_bound(grid, bound):
    # The claims compute one bound per grid for its @tsvN variants.
    assert claims._capacity(f"{grid}@tsv1") == pytest.approx(bound)
    for spec in (f"{grid}@tsv2", f"{grid}@tsv4"):
        topology, routing = parse_topology_routing(spec)
        assert uniform_capacity(
            routing or routing_for(topology)
        ) == pytest.approx(bound)


class TestMutations:
    def test_single_vc_ring_that_flows_fails_its_claim(self):
        figure = committed("ablation_vcs")
        column = figure.column("ring16-1vc")
        column[figure.x_values.index(0.4)] = figure.at("ring16-2vc", 0.4)
        assert failed_claims("ablation_vcs", figure) == [
            "single-vc-ring-collapses"
        ]

    def test_circulant_below_the_spidergon_fails_its_claim(self):
        figure = committed("study_circulant")
        column = figure.column("circulant16s2-thr")
        column[figure.x_values.index(0.8)] = (
            figure.at("spidergon16-thr", 0.8) - 0.1
        )
        assert failed_claims("study_circulant", figure) == [
            "s2-beats-the-spidergon"
        ]

    def test_throughput_above_the_bound_fails_its_claim(self):
        figure = committed("fig10")
        column = figure.column("ring8")
        column[figure.x_values.index(0.7)] = claims._capacity("ring8") + 0.1
        assert failed_claims("fig10", figure) == ["within-capacity"]

    def test_column_far_below_the_bound_fails_its_claim(self):
        figure = committed("fig10")
        column = figure.column("ring16")
        column[figure.x_values.index(0.7)] = 0.25 * claims._capacity("ring16")
        assert failed_claims("fig10", figure) == [
            "16-nodes-reach-0.3-of-capacity"
        ]

    def test_lost_load_below_the_hotspot_knee_fails_its_claim(self):
        # 17% under the offered 0.02 * 23: within the 20% of
        # linear-below-saturation, outside the new claim's 15%.
        figure = committed("fig6")
        column = figure.column("ring24")
        column[figure.x_values.index(0.02)] = 0.83 * 0.02 * 23
        assert failed_claims("fig6", figure) == [
            "tracks-load-below-the-predicted-knee"
        ]

    def test_missing_measurement_fails_its_claim(self):
        # Every claim that reads the cell fails, the capacity bound's
        # scan of the whole column included.
        figure = committed("fig10")
        column = figure.column("mesh4x6")
        column[figure.x_values.index(0.7)] = None
        assert failed_claims("fig10", figure) == [
            "ring-below-mesh",
            "mesh-beats-spidergon-at-high-load",
            "within-capacity",
        ]


ANALYTICAL = ["fig2", "fig3", "ablation_mesh_policy"]


class TestCheck:
    def test_committed_analytical_artefacts_pass(self, capsys):
        assert figures.main([*ANALYTICAL, "--csv", str(RESULTS), "--check"]) == 0
        assert "3 artefact(s), 0 problem(s)" in capsys.readouterr().out

    def test_edited_cell_and_missing_csv_fail(self, tmp_path, capsys):
        text = (RESULTS / "fig2.csv").read_text()
        (tmp_path / "fig2.csv").write_text(text.replace("11.0", "12.0", 1))
        assert figures.main(["fig2", "fig3", "--csv", str(tmp_path),
                             "--check"]) == 1
        out = capsys.readouterr().out
        assert f"MISMATCH {tmp_path / 'fig2.csv'}" in out
        assert f"MISSING {tmp_path / 'fig3.csv'}" in out
        assert "2 artefact(s), 2 problem(s)" in out
        # --check writes nothing.
        assert not (tmp_path / "fig3.csv").exists()

    def test_failed_claim_is_named(self, monkeypatch, capsys):
        monkeypatch.setitem(CLAIMS["fig2"], "never", lambda f: False)
        assert figures.main(["fig2", "--csv", str(RESULTS), "--check"]) == 1
        assert "FAILED fig2: claim never" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["fig2", "--check"], ["fig2", "--csv", "x", "--check", "--quick"]],
    )
    def test_rejected_options(self, argv):
        with pytest.raises(SystemExit) as exc:
            figures.main(argv)
        assert exc.value.code == 2

"""Tests for the equal-cost Spidergon-vs-circulant study."""

import pytest

from repro.experiments import figures
from repro.experiments.circulant import (
    candidate_skips,
    equal_cost_study,
    static_note,
)
from repro.experiments.claims import equal_cost_candidates
from repro.experiments.parallel import derive_seed, point_key
from repro.experiments.report import format_table
from repro.experiments.runner import SimulationSettings, SweepPoint
from repro.topology import CirculantTopology, SpidergonTopology
from repro.cost.wires import total_wire_length

FAST = SimulationSettings(cycles=1_200, warmup=200, seed=5)


def wire(num_nodes, skip=None):
    if skip is None:
        return total_wire_length(SpidergonTopology(num_nodes))
    return total_wire_length(CirculantTopology(num_nodes, skip))


class TestStaticMetrics:
    def test_reference_is_the_spidergon(self):
        assert static_note(16, None) == (
            f"spidergon16: ND 4, E[D] 2.438, links 48, wire {wire(16):.2f}"
        )

    def test_diametral_candidate_matches_reference(self):
        # circulant16s8 IS the Spidergon; every static number agrees.
        reference = static_note(16, None).split(": ")[1]
        assert static_note(16, 8) == f"circulant16s8: {reference}"

    def test_candidate_skips_cover_canonical_range(self):
        assert candidate_skips(16) == [2, 3, 4, 5, 6, 7, 8]

    def test_short_chords_cost_less_wire(self):
        # sin is increasing on [0, pi/2]: shorter chords, less wire
        # even with 4N links vs the Spidergon's 3N at N=16.
        assert wire(16, 2) < wire(16)


class TestStudy:
    def test_rejects_odd_n(self):
        with pytest.raises(ValueError, match="even"):
            equal_cost_study(15, settings=FAST)

    def test_rejects_empty_rates(self):
        with pytest.raises(ValueError):
            equal_cost_study(8, rates=(), settings=FAST)

    def test_study_shape_and_winner(self):
        figure = equal_cost_study(
            8, rates=(0.05, 0.5), settings=FAST, skips=[2, 3, 4]
        )
        specs = ["spidergon8", "circulant8s2", "circulant8s3", "circulant8s4"]
        assert list(figure.series) == [f"{s}-thr" for s in specs] + [
            f"{s}-lat" for s in specs
        ]
        assert all(len(column) == 2 for column in figure.series.values())
        # The diametral candidate (s=4 == N/2) never wins at equal
        # cost: it is the reference itself.
        assert "circulant8s4" not in equal_cost_candidates(figure)

    def test_figure_has_one_series_per_topology(self):
        figure = equal_cost_study(
            8, rates=(0.3,), settings=FAST, skips=[2]
        )
        assert set(figure.series) == {
            "spidergon8-thr", "circulant8s2-thr",
            "spidergon8-lat", "circulant8s2-lat",
        }

    def test_table_notes_carry_static_metrics(self):
        figure = equal_cost_study(
            8, rates=(0.05,), settings=FAST, skips=[2, 3]
        )
        text = format_table(figure)
        for skip in (None, 2, 3):
            assert f"({static_note(8, skip)})" in text
        assert "equal-cost rule" in text

    def test_equal_cost_filter_matches_wire_rule(self):
        figure = equal_cost_study(
            8, rates=(0.3,), settings=FAST, skips=[2, 3, 4]
        )
        # The diametral candidate fits (it IS the reference) but does
        # not count.
        assert equal_cost_candidates(figure) == [
            f"circulant8s{skip}"
            for skip in (2, 3)
            if wire(8, skip) <= wire(8) + 1e-9
        ]

    def test_short_chord_fits_budget_at_n16(self):
        # At N=16 the s=2 circulant undercuts the Spidergon's wire
        # budget despite its 4N links — the regime the study exploits.
        assert wire(16, 2) < wire(16)
        # ... but at N=8 it does not: the link-count overhead wins.
        assert wire(8, 2) > wire(8)


class TestCli:
    def test_main_runs(self, monkeypatch, capsys):
        # The study's command line is its artefact of ``repro figures``.
        monkeypatch.setattr(figures, "SETTINGS", FAST)
        assert figures.main(["study_circulant", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "== study-circulant:" in out
        assert "circulant16s2-thr" in out


class TestCacheKeys:
    """Circulant specs flow through the campaign cache unchanged."""

    def test_point_key_stable_and_spec_sensitive(self):
        settings = SimulationSettings(cycles=100, warmup=10, seed=1)
        point = SweepPoint("circulant16s4", "uniform", 0.1, settings)
        same = SweepPoint("circulant16s4", "uniform", 0.1, settings)
        other = SweepPoint("circulant16s5", "uniform", 0.1, settings)
        assert point_key(point) == point_key(same)
        assert point_key(point) != point_key(other)

    def test_derive_seed_distinguishes_chords(self):
        a = derive_seed(1, "circulant16s4", "uniform", 0.1)
        b = derive_seed(1, "circulant16s5", "uniform", 0.1)
        assert a != b
        assert a == derive_seed(1, "circulant16s4", "uniform", 0.1)

    def test_campaign_validate_accepts_circulant_specs(self):
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            {
                "name": "circulant-smoke",
                "topologies": ["circulant16s4", "spidergon16"],
                "patterns": ["uniform", "shuffle", "bit-reverse"],
                "rates": [0.1],
                "cycles": 200,
                "warmup": 20,
            }
        )
        campaign.validate()

    def test_campaign_validate_names_bad_circulant_spec(self):
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            {
                "name": "bad",
                "topologies": ["circulant16s99"],
                "patterns": ["uniform"],
                "rates": [0.1],
            }
        )
        with pytest.raises(ValueError):
            campaign.validate()

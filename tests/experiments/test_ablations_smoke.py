"""Smoke tests for the ablation studies (tiny sizes)."""

from repro.experiments import ablations, figures
from repro.experiments.runner import SimulationSettings
from repro.noc.config import NocConfig

TINY = SimulationSettings(
    cycles=1_200,
    warmup=200,
    config=NocConfig(source_queue_packets=8),
    seed=3,
)


class TestAblations:
    def test_buffer_depth(self):
        figure = ablations.ablation_output_buffer_depth(
            settings=TINY, depths=(1, 3), num_nodes=8,
            injection_rate=0.3,
        )
        assert figure.x_values == [1, 3]
        assert set(figure.series) == {"ring8", "spidergon8", "mesh2x4"}

    def test_virtual_channels(self):
        figure = ablations.ablation_virtual_channels(
            settings=TINY, num_nodes=8, rates=(0.1,)
        )
        assert set(figure.series) == {
            "ring8-1vc",
            "ring8-2vc",
            "spidergon8-1vc",
            "spidergon8-2vc",
        }

    def test_spidergon_routing(self):
        figure = ablations.ablation_spidergon_routing(
            settings=TINY, num_nodes=8, rates=(0.1,)
        )
        assert set(figure.series) == {"across-first", "table"}

    def test_packet_size(self):
        figure = ablations.ablation_packet_size(
            settings=TINY, sizes=(2, 6), num_nodes=8,
            injection_rate=0.2,
        )
        assert set(figure.series) == {"throughput", "latency"}
        assert all(v > 0 for v in figure.column("throughput"))

    def test_mesh_policy_analytical(self):
        figure = ablations.ablation_mesh_policy(4, 24)
        # The irregular grid never has a larger diameter than the
        # factorized grid (it cannot degenerate to a strip).
        for fact, irr in zip(
            figure.column("factorized-ND"), figure.column("irregular-ND")
        ):
            assert irr <= fact

    def test_cli(self, capsys):
        assert figures.main(["ablation_mesh_policy"]) == 0
        assert "mesh-policy" in capsys.readouterr().out

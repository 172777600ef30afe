"""Every study runs its points through ``execute_points``: the
``FigureData`` it returns is the same for any worker count."""

import functools

import pytest

from repro.experiments import ablations, extensions
from repro.experiments.circulant import equal_cost_study
from repro.experiments.drain import drain_study
from repro.experiments.mesh3d import stacking_study
from repro.experiments.runner import SimulationSettings
from repro.noc.config import NocConfig

SMOKE = SimulationSettings(
    cycles=300,
    warmup=50,
    config=NocConfig(source_queue_packets=8),
    seed=4,
)

STUDIES = {
    "buffers": functools.partial(
        ablations.ablation_output_buffer_depth,
        SMOKE, depths=(1, 3), num_nodes=8,
    ),
    "vcs": functools.partial(
        ablations.ablation_virtual_channels,
        SMOKE, num_nodes=8, rates=(0.1, 0.4),
    ),
    "spidergon-routing": functools.partial(
        ablations.ablation_spidergon_routing,
        SMOKE, num_nodes=8, rates=(0.1, 0.4),
    ),
    "packet-size": functools.partial(
        ablations.ablation_packet_size,
        SMOKE, sizes=(2, 6), num_nodes=8,
    ),
    "ext-torus": functools.partial(
        extensions.extension_torus_comparison,
        SMOKE, rows=3, cols=4, rates=(0.1, 0.3),
    ),
    "ext-patterns": functools.partial(
        extensions.extension_traffic_patterns, SMOKE, num_nodes=8
    ),
    "ext-faults": functools.partial(
        extensions.extension_fault_tolerance,
        SMOKE, rows=3, cols=3, fault_counts=(0, 2),
    ),
    "replicate": functools.partial(
        extensions.replicate,
        "spidergon8", "uniform", 0.2, SMOKE, seeds=(1, 2, 3),
    ),
    "circulant": functools.partial(
        equal_cost_study, 8, rates=(0.05, 0.3), settings=SMOKE
    ),
    "stacking": functools.partial(
        stacking_study,
        3,
        pattern="hotspot:0",
        tsv_latencies=(1, 2),
        rates=(0.1,),
        settings=SMOKE,
    ),
    "drain": functools.partial(drain_study, SMOKE, rates=(0.1, 0.3)),
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_output_independent_of_workers(name):
    study = STUDIES[name]
    serial = study(workers=1)
    assert repr(study(workers=2)) == repr(serial)

#!/usr/bin/env python3
"""Regenerate every figure and ablation for EXPERIMENTS.md.

Runs the simulation figures at half the default horizon (10k cycles,
2k warmup) — enough for stable shapes — and the analytical figures at
full range, with one worker process per CPU (results are identical
for any worker count).  Writes tables to stdout and CSVs next to this
script.
"""

import os
import pathlib
import sys
import time

from repro.experiments import ablations, figures
from repro.experiments.report import format_table, to_csv
from repro.experiments.runner import SimulationSettings
from repro.noc.config import NocConfig

OUT = pathlib.Path(__file__).parent
SETTINGS = SimulationSettings(
    cycles=10_000,
    warmup=2_000,
    config=NocConfig(source_queue_packets=64),
    seed=1,
)
#: Every simulated figure and study takes the same run settings and
#: one worker process per CPU.
SIM = {"settings": SETTINGS, "workers": os.cpu_count() or 1}


def emit(name, figure):
    sys.stdout.write(format_table(figure))
    sys.stdout.write("\n")
    sys.stdout.flush()
    (OUT / f"{name}.csv").write_text(to_csv(figure))


def main():
    jobs = [
        ("fig2", lambda: figures.figure2()),
        ("fig3", lambda: figures.figure3()),
        ("fig5", lambda: figures.figure5(**SIM)),
        ("fig6", lambda: figures.figure6(**SIM)),
        ("fig7", lambda: figures.figure7(**SIM)),
        ("fig8", lambda: figures.figure8(**SIM)),
        ("fig9", lambda: figures.figure9(**SIM)),
        ("fig10", lambda: figures.figure10(**SIM)),
        ("fig11", lambda: figures.figure11(**SIM)),
        (
            "ablation_buffers",
            lambda: ablations.ablation_output_buffer_depth(**SIM),
        ),
        (
            "ablation_vcs",
            lambda: ablations.ablation_virtual_channels(**SIM),
        ),
        (
            "ablation_routing",
            lambda: ablations.ablation_spidergon_routing(
                rates=(0.02, 0.05, 0.1, 0.25), **SIM
            ),
        ),
        (
            "ablation_packet_size",
            lambda: ablations.ablation_packet_size(**SIM),
        ),
        (
            "ablation_mesh_policy",
            lambda: ablations.ablation_mesh_policy(),
        ),
    ]
    for name, job in jobs:
        start = time.time()
        emit(name, job())
        sys.stdout.write(
            f"[{name} done in {time.time() - start:.0f}s]\n\n"
        )
        sys.stdout.flush()


if __name__ == "__main__":
    main()

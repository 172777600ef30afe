"""Shared settings for the capacity-bound benchmarks.

The paper's figures and their claims are regenerated and checked by
``python -m repro figures all --csv results --check``; the benchmarks
here hold measured saturation against the analytical channel-load
bound, and report the generation time through pytest-benchmark.
"""

import pytest

from repro.experiments.report import format_table
from repro.experiments.runner import SimulationSettings
from repro.noc.config import NocConfig


@pytest.fixture(scope="session")
def bench_settings() -> SimulationSettings:
    return SimulationSettings(
        cycles=5_000,
        warmup=1_000,
        config=NocConfig(source_queue_packets=64),
        seed=1,
    )


@pytest.fixture
def run_once(benchmark):
    """Run *fn* exactly once under pytest-benchmark and print the
    resulting figure table."""

    def runner(fn, *args, **kwargs):
        figure = benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1
        )
        print()
        print(format_table(figure))
        return figure

    return runner

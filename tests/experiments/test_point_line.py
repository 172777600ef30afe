"""Tests for point lines (``specs.parse_point``) and the run keys they
share with campaign specs (``specs.run_settings``)."""

import pytest

from repro.experiments.campaign import Campaign
from repro.experiments.runner import SimulationSettings
from repro.experiments.specs import RUN_KEYS, parse_point
from repro.resilience import FaultEvent, FaultPlan


def test_defaults_are_the_campaign_defaults():
    point = parse_point(["ring8", "uniform", "0.1"])
    assert (point.topology, point.pattern, point.rate) == (
        "ring8",
        "uniform",
        0.1,
    )
    frame = {"name": "x", "topologies": [], "patterns": [], "rates": []}
    assert point.settings == Campaign(frame).settings == SimulationSettings()


def test_every_run_key():
    point = parse_point(
        [
            "mesh4x4:adaptive",
            "hotspot:0,5",
            "0.2",
            "cycles=3000",
            "warmup=500",
            "seed=7",
            "source_queue_packets=8",
            "timeline_window=100",
            "stall_cycles=2000",
            "invariant_check_interval=500",
            "engine=heap",
        ]
    )
    settings = point.settings
    assert (settings.cycles, settings.warmup, settings.seed) == (3000, 500, 7)
    assert settings.config.source_queue_packets == 8
    assert settings.timeline_window == 100
    assert settings.stall_cycles == 2000
    assert settings.invariant_check_interval == 500
    assert settings.engine == "heap"
    assert settings.fault_plan is None


def test_fail_tokens_build_the_fault_plan_in_order():
    point = parse_point(
        ["ring8", "uniform", "0.1", "fail=0:1@1500:2000", "fail=0:7@1500"]
    )
    assert point.settings.fault_plan == FaultPlan(
        (
            FaultEvent(1500, 0, 1, "fail"),
            FaultEvent(2000, 0, 1, "repair"),
            FaultEvent(1500, 0, 7, "fail"),
        )
    )


def test_random_faults_resolve_like_a_campaign():
    point = parse_point(
        ["mesh4x4", "uniform", "0.1", "seed=9", "random_faults=2@1000:500"]
    )
    campaign = Campaign(
        {
            "name": "x",
            "seed": 9,
            "topologies": ["mesh4x4"],
            "patterns": ["uniform"],
            "rates": [0.1],
            "random_faults": {"count": 2, "at": 1000, "repair_after": 500},
        }
    )
    assert point.settings.fault_plan == campaign._fault_plan_for("mesh4x4")
    assert len(point.settings.fault_plan.events) == 4


@pytest.mark.parametrize(
    "tokens, message",
    [
        (["ring8", "uniform", "0.1", "stall=2000"], "unknown key 'stall'"),
        (["ring8", "uniform", "0.1", "cycles=many"], "cycles=many"),
        (["ring8", "uniform", "0.1", "fail=0-1@300"], "'fail=0-1@300'"),
        (["ring8", "uniform", "0.1", "fail=0:0@300"], "'fail=0:0@300'"),
        (["ring8", "uniform", "0.1", "fail=0:4@300"], "'fail=0:4@300'"),
        (["ring8", "uniform", "0.1", "random_faults=2"], "random_faults=2"),
        (
            ["ring8", "uniform", "0.1", "fail=0:1@3", "random_faults=1@3"],
            "exclusive",
        ),
        (["ring8", "uniform", "0.1", "seed=1", "seed=2"], "'seed=2'"),
        (["ring8", "uniform", "0.1", "cycles=0"], "cycles=0"),
        (["ring8", "uniform", "0.1", "cycles=500"], "warmup=4000"),
        (["ring8", "uniform", "0.1", "warmup=-1"], "warmup=-1"),
        (["ring8", "transpose", "0.1"], "'transpose'"),
        (["ring8", "uniform", "fast"], "'fast'"),
        (["ring8", "uniform", "-0.1"], "'-0.1'"),
        (["butterfly8", "uniform", "0.1"], "'butterfly8'"),
        (["ring8", "uniform"], "TOPOLOGY PATTERN RATE"),
    ],
)
def test_bad_point_names_the_token(tokens, message):
    with pytest.raises(ValueError, match=message):
        parse_point(tokens)


def test_campaign_rejects_a_misspelt_key():
    spec = {
        "name": "x",
        "topologies": ["ring8"],
        "patterns": ["uniform"],
        "rates": [0.1],
        "stall_cycle": 3000,
    }
    with pytest.raises(ValueError, match="'stall_cycle'") as excinfo:
        Campaign(spec)
    assert all(key in str(excinfo.value) for key in RUN_KEYS)

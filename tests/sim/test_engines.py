"""The unified engine registry and engine selection."""

import pytest

from repro.sim.engines import (
    Engine,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.sim.events import CycleCalendar, HeapEventQueue
from repro.sim.kernel import Simulator


class TestRegistry:
    def test_builtins_registered(self):
        names = [family.name for family in available_engines()]
        assert names == sorted(names)
        for expected in ("batched", "heap", "wheel"):
            assert expected in names

    def test_descriptions_nonempty(self):
        for family in available_engines():
            assert family.description

    def test_resolve_by_name_returns_fresh_instances(self):
        a = resolve_engine("wheel")
        b = resolve_engine("wheel")
        assert a is not b
        assert a.name == "wheel"

    def test_resolve_instance_passthrough(self):
        engine = resolve_engine("heap")
        assert resolve_engine(engine) is engine

    def test_resolve_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="wheel"):
            resolve_engine("warp-drive")

    def test_resolve_wrong_type(self):
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="wheel"):

            @register_engine("wheel", description="imposter")
            class Imposter(Engine):
                pass


class TestSimulatorSelection:
    @pytest.mark.parametrize(
        "engine,queue_class",
        [("wheel", CycleCalendar), ("heap", HeapEventQueue)],
    )
    def test_engine_selects_queue(self, engine, queue_class):
        sim = Simulator(engine=engine)
        assert isinstance(sim._queue, queue_class)
        assert sim.engine.name == engine

    def test_engine_instance_accepted(self):
        sim = Simulator(engine=resolve_engine("heap"))
        assert isinstance(sim._queue, HeapEventQueue)

    def test_network_threads_engine(self):
        from repro.noc.config import NocConfig
        from repro.noc.network import Network
        from repro.topology import RingTopology
        from repro.traffic import TrafficSpec, UniformTraffic

        topology = RingTopology(4)
        network = Network(
            topology,
            config=NocConfig(),
            traffic=TrafficSpec(UniformTraffic(topology), 0.1),
            seed=1,
            engine="heap",
        )
        assert network.simulator.engine.name == "heap"


class TestSettingsThreading:
    def test_settings_engine_reaches_network(self):
        from repro.experiments.runner import (
            SimulationSettings,
            run_simulation,
        )
        from repro.experiments.specs import (
            parse_pattern,
            parse_topology,
        )

        topology = parse_topology("ring16")
        pattern = parse_pattern("uniform", topology)
        settings = SimulationSettings(
            cycles=200, warmup=0, engine="batched"
        )
        wheel = run_simulation(
            topology,
            pattern,
            0.1,
            SimulationSettings(cycles=200, warmup=0),
        )
        batched = run_simulation(topology, pattern, 0.1, settings)
        assert wheel.to_dict() == batched.to_dict()

    def test_engine_leaves_cache_key_unchanged(self):
        """Every engine gives a byte-identical result, so the key
        hashes only what decides it: naming an engine (or not) never
        turns a stored result into a miss."""
        from repro.experiments.parallel import point_key
        from repro.experiments.runner import (
            SimulationSettings,
            SweepPoint,
        )

        def point(engine):
            return SweepPoint(
                topology="ring16",
                pattern="uniform",
                rate=0.1,
                settings=SimulationSettings(engine=engine),
            )

        keys = {
            point_key(point(engine))
            for engine in ("wheel", "heap", "batched", None)
        }
        assert len(keys) == 1
        # Everything else in the settings still moves the key.
        seeded = SweepPoint(
            "ring16", "uniform", 0.1, SimulationSettings(seed=2)
        )
        assert point_key(seeded) not in keys

    def test_store_hits_across_engines(self, tmp_path):
        """A campaign run under wheel and then under batched into one
        store: the second run is served entirely from the store."""
        from repro.experiments.campaign import campaign_points
        from repro.experiments.parallel import (
            ResultCache,
            execute_points,
        )

        spec = {
            "name": "t",
            "cycles": 300,
            "warmup": 50,
            "topologies": ["ring8", "mesh8"],
            "patterns": ["uniform"],
            "rates": [0.05, 0.2],
        }
        cache = ResultCache(tmp_path / "store")
        wheel, cold = execute_points(
            campaign_points(dict(spec, engine="wheel")), cache=cache
        )
        batched, warm = execute_points(
            campaign_points(dict(spec, engine="batched")), cache=cache
        )
        assert cold.cache_misses == 4
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in wheel
        ]

    def test_campaign_spec_engine_key(self):
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            {
                "name": "t",
                "topologies": ["ring16"],
                "patterns": ["uniform"],
                "rates": [0.1],
                "engine": "batched",
            }
        )
        assert campaign.settings.engine == "batched"
        points = campaign.sweep_points()
        assert all(p.settings.engine == "batched" for p in points)

    def test_campaign_bad_engine_fails_fast(self):
        """An unknown engine aborts in validate() — before any
        simulation runs or CSV row is written — like a bad topology
        or pattern spec."""
        from repro.experiments.campaign import Campaign

        campaign = Campaign(
            {
                "name": "t",
                "topologies": ["ring16"],
                "patterns": ["uniform"],
                "rates": [0.1],
                "engine": "warp",
            }
        )
        with pytest.raises(ValueError, match="unknown engine"):
            campaign.validate()


class _Spy:
    """Patches the runner's Network to record each built network's
    engine name."""

    def __init__(self, monkeypatch):
        from repro.experiments import runner

        self.engines = []
        real = runner.Network
        spy = self

        class SpyNetwork(real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spy.engines.append(self.simulator.engine.name)

        monkeypatch.setattr(runner, "Network", SpyNetwork)


def _sweep_point(engine=None):
    """A small point; the settings leave the engine field at its
    default unless *engine* is given."""
    from dataclasses import replace

    from repro.experiments.runner import SimulationSettings, SweepPoint

    settings = SimulationSettings(cycles=200, warmup=20)
    if engine is not None:
        settings = replace(settings, engine=engine)
    return SweepPoint("ring8", "uniform", 0.1, settings)


class TestDefaults:
    """Networks, sweeps and campaigns default to batched, a bare
    Simulator to the heap; a named engine overrides either."""

    def test_network_default_is_batched(self):
        from repro.noc.network import Network
        from repro.sim.batched import BatchedEngine
        from repro.topology import RingTopology

        network = Network(RingTopology(4))
        assert isinstance(network.simulator.engine, BatchedEngine)

    def test_bare_simulator_default_is_heap(self):
        sim = Simulator()
        assert sim.engine.name == "heap"
        assert isinstance(sim._queue, HeapEventQueue)

    def test_settings_default_runs_batched(self, monkeypatch):
        from repro.experiments.parallel import run_sweep_point
        from repro.experiments.runner import SimulationSettings

        assert SimulationSettings().engine is None
        spy = _Spy(monkeypatch)
        run_sweep_point(_sweep_point())
        assert spy.engines == ["batched"]

    def test_campaign_spec_without_engine_runs_batched(
        self, monkeypatch
    ):
        from repro.experiments.campaign import campaign_points
        from repro.experiments.parallel import run_sweep_point

        points = campaign_points(
            {
                "name": "t",
                "cycles": 200,
                "warmup": 20,
                "topologies": ["ring8"],
                "patterns": ["uniform"],
                "rates": [0.1],
            }
        )
        assert [p.settings.engine for p in points] == [None]
        spy = _Spy(monkeypatch)
        run_sweep_point(points[0])
        assert spy.engines == ["batched"]

    def test_named_engine_overrides_default(self, monkeypatch):
        from repro.experiments.parallel import run_sweep_point
        from repro.noc.network import Network
        from repro.topology import RingTopology

        spy = _Spy(monkeypatch)
        run_sweep_point(_sweep_point("wheel"))
        assert spy.engines == ["wheel"]
        network = Network(RingTopology(4), engine="heap")
        assert network.simulator.engine.name == "heap"
        assert Simulator(engine="batched").engine.name == "batched"

"""Engine registry: selection, equivalence, fallback, registration."""

from dataclasses import replace

import pytest

from repro.core import CORES, ENGINES, EngineRegistry, RecycleMode, simulate
from repro.core.compiled import CompiledSimulator
from repro.core.vector import VectorSimulator, simulate_batch
from repro.core.cpu import CoreSimulator
from repro.obs import Recorder
from repro.pipeline.trace import generate_trace
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def config():
    return CORES["small"].with_mode(RecycleMode.REDSOC)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert set(ENGINES.names()) >= {"reference", "fast",
                                        "compiled", "vector"}
        for name in ("reference", "fast", "compiled", "vector"):
            assert name in ENGINES

    def test_unknown_engine_is_loud(self, tiny_trace, config):
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.create("warp", tiny_trace, config)

    def test_unknown_engine_lists_registered_names(self, tiny_trace,
                                                   config):
        # the error must enumerate what IS registered, vector included
        with pytest.raises(ValueError) as err:
            ENGINES.create("warp", tiny_trace, config)
        message = str(err.value)
        for name in ("reference", "fast", "compiled", "vector"):
            assert name in message

    def test_batch_probe(self):
        assert ENGINES.batch("vector") is not None
        assert ENGINES.batch("reference") is None
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.batch("warp")

    def test_reregistration_drops_stale_batch(self):
        registry = EngineRegistry()
        registry.register("x", lambda *a, **k: None,
                          batch=lambda items: [])
        assert registry.batch("x") is not None
        registry.register("x", lambda *a, **k: None)
        assert registry.batch("x") is None

    def test_unknown_engine_via_config(self, tiny_trace, config):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(tiny_trace, replace(config, engine="warp"))

    def test_register_rejects_bad_names(self):
        registry = EngineRegistry()
        with pytest.raises(ValueError):
            registry.register("", lambda *a, **k: None)
        with pytest.raises(ValueError):
            registry.register(None, lambda *a, **k: None)

    def test_registration_order_preserved(self):
        registry = EngineRegistry()
        registry.register("b", lambda *a, **k: None)
        registry.register("a", lambda *a, **k: None)
        assert registry.names() == ("b", "a")

    def test_default_engine_is_compiled(self, config):
        assert config.engine == "compiled"


class TestBackendSelection:
    def test_reference_pins_step_loop(self, tiny_trace, config):
        runner = ENGINES.create("reference", tiny_trace, config)
        assert isinstance(runner, CoreSimulator)
        assert runner._force_step

    def test_fast_is_the_event_driven_simulator(self, tiny_trace, config):
        runner = ENGINES.create("fast", tiny_trace, config)
        assert isinstance(runner, CoreSimulator)
        assert not runner._force_step

    def test_compiled_backend(self, tiny_trace, config):
        runner = ENGINES.create("compiled", tiny_trace, config)
        assert isinstance(runner, CompiledSimulator)

    def test_compiled_falls_back_under_observation(self, tiny_trace,
                                                   config):
        # the compiled loop has no probe points: observed runs must
        # route to the reference simulator so traces stay complete
        runner = ENGINES.create("compiled", tiny_trace, config,
                                obs=Recorder())
        assert isinstance(runner, CoreSimulator)

    def test_vector_backend(self, tiny_trace, config):
        runner = ENGINES.create("vector", tiny_trace, config)
        assert isinstance(runner, VectorSimulator)

    def test_vector_falls_back_under_observation(self, tiny_trace,
                                                 config):
        runner = ENGINES.create("vector", tiny_trace, config,
                                obs=Recorder())
        assert isinstance(runner, CoreSimulator)


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", list(RecycleMode))
    def test_engines_bit_identical(self, tiny_trace, mode):
        config = CORES["small"].with_mode(mode)
        stats = [simulate(tiny_trace, replace(config, engine=e)).stats
                 for e in ("reference", "fast", "compiled", "vector")]
        assert stats[0] == stats[1] == stats[2] == stats[3]

    def test_batched_replay_matches_single_runs(self, tiny_trace):
        items = [(tiny_trace, replace(CORES[core].with_mode(mode),
                                      engine="vector"))
                 for core in ("small", "big")
                 for mode in RecycleMode]
        batched = simulate_batch(items)
        for (trace, cfg), result in zip(items, batched):
            assert result.stats == simulate(trace, cfg).stats

    def test_observed_run_matches_unobserved(self, tiny_trace, config):
        plain = simulate(tiny_trace, replace(config, engine="compiled"))
        observed = simulate(tiny_trace,
                            replace(config, engine="compiled"),
                            obs=Recorder())
        assert observed.stats == plain.stats

"""Engine registry: selection, equivalence, fallback, aliases."""

import argparse
from dataclasses import replace

import pytest

from repro.campaign.cache import result_key
from repro.campaign.jobs import CampaignJob, enumerate_jobs, job_config
from repro.campaign.runner import _execute_jobs
from repro.core import CORES, ENGINES, EngineRegistry, RecycleMode, simulate
from repro.core.compiled import CompiledSimulator
from repro.core.cpu import CoreSimulator
from repro.core.engine import ALIASES, engine_arg
from repro.obs import Recorder
from repro.pipeline.trace import Trace, generate_trace
from repro.serve.protocol import RequestError, parse_request
from repro.serve.workers import execute_payload
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def config():
    return CORES["small"].with_mode(RecycleMode.REDSOC)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert ENGINES.names() == ("reference", "compiled")
        for name in ("reference", "compiled", "fast", "vector"):
            assert name in ENGINES

    def test_unknown_engine_is_loud(self, tiny_trace, config):
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.create("warp", tiny_trace, config)

    def test_unknown_engine_lists_registered_names(self, tiny_trace,
                                                   config):
        # the error must enumerate what IS registered
        with pytest.raises(ValueError) as err:
            ENGINES.create("warp", tiny_trace, config)
        message = str(err.value)
        for name in ENGINES.names():
            assert name in message

    def test_batch_probe(self):
        # no backend replays batched lanes; the probe still validates
        for name in ENGINES.names() + tuple(ALIASES):
            assert ENGINES.batch(name) is None
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.batch("warp")

    def test_reregistration_replaces_factory(self):
        registry = EngineRegistry()
        registry.register("x", lambda *a, **k: "old")
        registry.register("x", lambda *a, **k: "new")
        assert registry.names() == ("x",)
        assert registry.create("x", None, None) == "new"

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

    def test_fast_alias_is_compiled(self, tiny_trace, config):
        runner = ENGINES.create("fast", tiny_trace, config)
        assert isinstance(runner, CompiledSimulator)

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
        assert isinstance(runner, CompiledSimulator)

    def test_vector_falls_back_under_observation(self, tiny_trace,
                                                 config):
        runner = ENGINES.create("vector", tiny_trace, config,
                                obs=Recorder())
        assert isinstance(runner, CoreSimulator)


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", list(RecycleMode))
    def test_engines_bit_identical(self, tiny_trace, mode):
        config = CORES["small"].with_mode(mode)
        ref, compiled = [simulate(tiny_trace, replace(config, engine=e))
                         for e in ENGINES.names()]
        assert ref.stats == compiled.stats

    def test_observed_run_matches_unobserved(self, tiny_trace, config):
        plain = simulate(tiny_trace, replace(config, engine="compiled"))
        observed = simulate(tiny_trace,
                            replace(config, engine="compiled"),
                            obs=Recorder())
        assert observed.stats == plain.stats

    @pytest.mark.parametrize("engine", ["reference", "compiled"])
    def test_empty_trace(self, engine, config):
        empty = Trace(name="empty", entries=[], final_regs={},
                      final_mem={})
        result = simulate(empty, replace(config, engine=engine))
        assert result.stats.cycles == 0
        assert result.stats.committed == 0

    def test_repeat_runs_are_deterministic(self, tiny_trace, config):
        # the memoized lowering must not leak width predictions (or any
        # other per-run state) between runs
        first = CompiledSimulator(tiny_trace, config).run()
        second = CompiledSimulator(tiny_trace, config).run()
        assert first.stats == second.stats


@pytest.mark.parametrize("alias", sorted(ALIASES))
class TestAliases:
    """Retired names resolve to ``compiled`` at the one alias table."""

    def test_resolves_to_compiled(self, alias):
        assert ENGINES.resolve(alias) == "compiled"
        assert alias not in ENGINES.names()

    def test_simulate_cycles_match_compiled(self, alias, tiny_trace):
        for mode in RecycleMode:
            config = CORES["small"].with_mode(mode)
            assert simulate(tiny_trace, replace(config, engine=alias)) \
                .stats == simulate(tiny_trace, config).stats

    def test_campaign_job_shares_compiled_key(self, alias, tiny_trace,
                                              tmp_path):
        [job] = enumerate_jobs(suites=["ml"], benchmarks=["pool0"],
                               cores=["small"], modes=["redsoc"],
                               scale=3, engine=alias)
        assert job.engine == "compiled"
        raw = replace(job, engine=alias)
        compiled = replace(job, engine="compiled")
        assert job_config(raw) == job_config(compiled)
        assert result_key(tiny_trace, job_config(raw)) == \
            result_key(tiny_trace, job_config(compiled))
        first, second = _execute_jobs([compiled, raw], str(tmp_path),
                                      force=False)
        assert second.cache_hit and second.key == first.key
        assert second.cycles == first.cycles

    def test_serve_simulate_matches_compiled(self, alias, tmp_path):
        named = {"suite": "ml", "bench": "pool0", "scale": 3,
                 "core": "small", "mode": "redsoc"}
        inline = {"asm": "mov r1, #40\nloop:\nsubs r1, r1, #1\n"
                         "bne loop\nhalt", "core": "small",
                  "mode": "redsoc"}
        for body in (named, inline):
            pinned = parse_request("simulate", dict(body, engine=alias))
            compiled = parse_request("simulate",
                                     dict(body, engine="compiled"))
            # one LRU / single-flight slot for the alias and its target
            assert pinned.fingerprint == compiled.fingerprint
            [payload] = pinned.worker_payloads()
            assert payload["engine"] == "compiled"
            # old clients whose payload still names the alias
            a = execute_payload("simulate", dict(payload, engine=alias),
                                str(tmp_path))
            b = execute_payload("simulate", payload, str(tmp_path))
            assert a["cycles"] == b["cycles"]
            assert a["key"] == b["key"] and b["cache_hit"]


class TestUnknownNames:
    def test_resolve_lists_registered_engines(self):
        with pytest.raises(ValueError) as err:
            ENGINES.resolve("warp")
        assert "unknown engine 'warp'" in str(err.value)
        for name in ENGINES.names():
            assert name in str(err.value)

    def test_campaign_jobs_reject(self):
        with pytest.raises(ValueError, match="unknown engine"):
            enumerate_jobs(suites=["ml"], engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            job_config(CampaignJob("ml", "pool0", "small", "redsoc",
                                   engine="warp"))

    def test_cli_option_rejects(self):
        assert engine_arg("vector") == "compiled"
        with pytest.raises(argparse.ArgumentTypeError,
                           match="choose from"):
            engine_arg("warp")

    def test_serve_rejects_with_typed_400(self):
        with pytest.raises(RequestError) as err:
            parse_request("simulate", {"suite": "ml", "bench": "pool0",
                                       "core": "small", "mode": "redsoc",
                                       "engine": "warp"})
        assert (err.value.status, err.value.code) == \
            (400, "unknown-engine")
        for name in ENGINES.names():
            assert name in err.value.message

"""Cache keys: stability, invalidation, result round-trips."""

from dataclasses import asdict, replace

import pytest

from repro.campaign.cache import (
    ResultCache,
    cached_simulate,
    config_fingerprint,
    payload_to_result,
    result_key,
    result_to_payload,
    trace_fingerprint,
    trace_index_key,
)
from repro.core import CORES, RecycleMode, simulate
from repro.pipeline.trace import generate_trace
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def config():
    return CORES["small"].with_mode(RecycleMode.REDSOC)


class TestKeyStability:
    def test_same_inputs_same_key(self, tiny_trace, config):
        assert result_key(tiny_trace, config) == \
            result_key(tiny_trace, config)

    def test_regenerated_trace_same_key(self, tiny_trace, config):
        other = generate_trace(SUITES["ml"]["pool0"](scale=3))
        assert result_key(other, config) == \
            result_key(tiny_trace, config)

    def test_fingerprint_memoised_on_trace(self, tiny_trace):
        assert trace_fingerprint(tiny_trace) is \
            trace_fingerprint(tiny_trace)


class TestKeyInvalidation:
    def test_mode_changes_key(self, tiny_trace, config):
        other = config.with_mode(RecycleMode.BASELINE)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_ablation_knob_changes_key(self, tiny_trace, config):
        other = config.variant(slack_threshold=3)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_core_changes_key(self, tiny_trace, config):
        other = CORES["big"].with_mode(RecycleMode.REDSOC)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_workload_changes_key(self, tiny_trace, config):
        other = generate_trace(SUITES["ml"]["pool0"](scale=4))
        assert result_key(other, config) != \
            result_key(tiny_trace, config)

    def test_model_salt_changes_key(self, tiny_trace, config):
        assert result_key(tiny_trace, config, salt="vNext") != \
            result_key(tiny_trace, config)

    def test_config_fingerprint_covers_nested_dataclasses(self, config):
        slow_mem = config.variant(
            memory=config.memory.__class__(l1_latency=9))
        assert config_fingerprint(slow_mem) != config_fingerprint(config)

    def test_trace_index_key_dimensions(self):
        base = trace_index_key("ml", "pool0")
        assert trace_index_key("ml", "pool0") == base
        assert trace_index_key("ml", "pool1") != base
        assert trace_index_key("ml", "pool0", scale=7) != base
        assert trace_index_key("ml", "pool0", salt="vNext") != base


class TestRoundTrip:
    def test_payload_round_trip(self, tiny_trace, config):
        result = simulate(tiny_trace, config)
        restored = payload_to_result(result_to_payload(result), config)
        assert restored.name == result.name
        assert restored.cycles == result.cycles
        assert asdict(restored.stats) == asdict(result.stats)

    def test_cached_simulate_hits_second_time(self, tiny_trace, config,
                                              tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = cached_simulate(tiny_trace, config, cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1
        second = cached_simulate(tiny_trace, config, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert asdict(second.stats) == asdict(first.stats)

    def test_force_reruns_but_rewrites(self, tiny_trace, config,
                                       tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        forced = cached_simulate(tiny_trace, config, cache, force=True)
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 1
        assert forced.cycles > 0

    def test_corrupt_entry_is_a_miss(self, tiny_trace, config,
                                     tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        key = result_key(tiny_trace, config)
        cache.path(key).write_text("not json{")
        result = cached_simulate(tiny_trace, config, cache)
        assert result.cycles > 0
        assert cache.misses == 2  # corrupt read counted as miss


class TestCorruptionTolerance:
    """Torn/garbage entries: miss + count + unlink, never a crash."""

    def _warm(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        return cache, result_key(tiny_trace, config)

    @pytest.mark.parametrize("garbage", [
        b"not json{",                 # torn mid-write
        b'{"schema": 1, "name": ',    # truncated JSON
        b"\x00\xff\xfe binary",       # not even text
        b"[1, 2, 3]",                 # valid JSON, wrong shape
    ])
    def test_garbage_entry_is_counted_and_removed(
            self, tiny_trace, config, tmp_path, garbage):
        cache, key = self._warm(tiny_trace, config, tmp_path)
        cache.path(key).write_bytes(garbage)
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not cache.path(key).exists()   # unlinked for rewrite
        # and the next simulate round-trips a fresh entry
        result = cached_simulate(tiny_trace, config, cache)
        assert result.cycles > 0
        assert cache.get(key) is not None

    def test_schema_mismatch_is_a_plain_miss(self, tiny_trace, config,
                                             tmp_path):
        cache, key = self._warm(tiny_trace, config, tmp_path)
        cache.path(key).write_text('{"schema": 999}')
        assert cache.get(key) is None
        # an old-but-well-formed entry is not corruption
        assert cache.corrupt == 0
        assert cache.path(key).exists()

    def test_missing_entry_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 32) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_corrupt_trace_index_entry(self, tiny_trace, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tkey = trace_index_key("ml", "pool0", 3)
        cache.put_trace_fingerprint(tkey, trace_fingerprint(tiny_trace))
        cache.trace_index_path(tkey).write_text("{torn")
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 1
        assert not cache.trace_index_path(tkey).exists()
        # index entry with the wrong shape is also corrupt
        cache.trace_index_path(tkey).parent.mkdir(exist_ok=True)
        cache.trace_index_path(tkey).write_text('{"fingerprint": 42}')
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 2

    def test_corruption_logged_via_obs_metrics(self, tiny_trace, config,
                                               tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path / "cache", metrics=metrics)
        cached_simulate(tiny_trace, config, cache)
        key = result_key(tiny_trace, config)
        cache.path(key).write_text("}{")
        assert cache.get(key) is None
        assert metrics.counter("cache.corrupt_entries").value == 1

    def test_clear(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        cache.put_trace_fingerprint(trace_index_key("ml", "pool0"),
                                    trace_fingerprint(tiny_trace))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get_trace_fingerprint(
            trace_index_key("ml", "pool0")) is None


class TestEngineInvalidation:
    """Switching ``engine=`` can never serve a stale cached result."""

    def test_engine_changes_key(self, tiny_trace, config):
        compiled = replace(config, engine="compiled")
        reference = replace(config, engine="reference")
        keys = {result_key(tiny_trace, c) for c in (compiled, reference)}
        assert len(keys) == 2

    def test_lowering_digest_changes_key(self, tiny_trace, config,
                                         monkeypatch):
        import repro.campaign.cache as cache_mod

        before = result_key(tiny_trace, config)
        monkeypatch.setattr(cache_mod, "lowering_digest",
                            lambda: "feedfacefeedface")
        assert result_key(tiny_trace, config) != before

    def test_no_cross_engine_serving(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        reference = cached_simulate(tiny_trace,
                                    replace(config, engine="reference"),
                                    cache)
        compiled = cached_simulate(tiny_trace,
                                   replace(config, engine="compiled"),
                                   cache)
        # the second engine must be a miss, not a stale hit ...
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 2
        # ... and (being bit-identical backends) agree on the physics
        assert asdict(compiled.stats) == asdict(reference.stats)


class TestTraceFingerprintDigest:
    """The fingerprint is part of every cache key: its bytes must never
    drift, or every existing cache silently goes cold."""

    #: digests of the smoke traces at their default scales
    SMOKE_DIGESTS = {
        ("spec", "soplex"):
            "3c21eaaaf3f27dac6a58c40d5fdea44420003368f76b4d52de9fb240f5684add",
        ("mibench", "bitcnt"):
            "06e4a379932dca2630fc2a87a2f8ea2ee60d35b0585a2e31604cd3ad28421a31",
        ("ml", "pool0"):
            "22f52635dd938ecb7431e4e7e6e8b47ad9d84834d519413ce1b56f4f1c23ae81",
    }

    @pytest.mark.parametrize("suite,bench", sorted(SMOKE_DIGESTS))
    def test_smoke_digests_pinned(self, suite, bench):
        from repro.workloads.suites import default_scale

        trace = generate_trace(
            SUITES[suite][bench](**default_scale(suite, bench)))
        assert trace_fingerprint(trace) == \
            self.SMOKE_DIGESTS[(suite, bench)]

    def test_matches_whole_tuple_repr(self):
        # the definition the pinned digests were first computed with:
        # one repr of the full static + dynamic tuple per entry
        import hashlib

        trace = generate_trace(SUITES["ml"]["pool0"](scale=2))
        sha = hashlib.sha256(trace.name.encode())
        for entry in trace.entries:
            instr = entry.instr
            sha.update(repr((
                instr.op.name,
                instr.rd and repr(instr.rd), instr.rn and repr(instr.rn),
                instr.rm and repr(instr.rm), instr.ra and repr(instr.ra),
                instr.rs and repr(instr.rs),
                instr.imm, instr.shift.name, instr.shift_amt,
                instr.set_flags, instr.cond.name, instr.target,
                instr.dtype and instr.dtype.name, instr.scale,
                entry.pc, entry.next_pc, entry.taken, entry.op_width,
                entry.mem_addr, entry.mem_size, entry.is_store,
            )).encode())
        assert trace_fingerprint(trace) == sha.hexdigest()

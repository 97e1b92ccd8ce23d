"""Worker execution + crash supervision.

``execute_payload`` runs in-process here (it is a plain function); the
:class:`WorkerPool` tests exercise the real ``ProcessPoolExecutor``
including a SIGKILL mid-request, which is the unit-level half of the
chaos story (tests/serve/test_chaos.py drives the same path over HTTP).
"""

import asyncio
import gc
import os
import signal
import time
import weakref
from collections import OrderedDict

import pytest

import repro.campaign.jobs as jobs_mod
from repro.isa.serialize import program_to_dict
from repro.isa.textasm import assemble_text
from repro.pipeline.trace import TraceEntry
from repro.serve.workers import WorkerCrash, WorkerPool, execute_payload

SPIN = "mov r1, #5\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


def live_entries():
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEntry)


def inline_payload(mode="baseline", iters=5):
    src = SPIN.replace("#5", f"#{iters}")
    program = assemble_text(src, name="spin")
    return {"program": program_to_dict(program),
            "core": "small", "mode": mode}


def run(coro):
    return asyncio.run(coro)


class TestExecutePayload:
    def test_named_simulate(self, tmp_path):
        result = execute_payload("simulate",
                                 {"suite": "ml", "bench": "pool0",
                                  "core": "small", "mode": "baseline",
                                  "scale": 3},
                                 str(tmp_path))
        assert result["cycles"] > 0
        assert result["workload"] == "ml/pool0"
        assert result["cache_hit"] is False

    def test_inline_simulate_warms_the_cache(self, tmp_path):
        cold = execute_payload("simulate", inline_payload(),
                               str(tmp_path))
        warm = execute_payload("simulate", inline_payload(),
                               str(tmp_path))
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        assert warm["cycles"] == cold["cycles"]
        assert warm["workload"] == "spin"

    def test_inline_cache_put_is_its_own_phase(self, tmp_path,
                                               monkeypatch):
        # the result write (with its fsync) must not count as replay
        import repro.campaign.cache as cache_mod

        real_put = cache_mod.ResultCache.put

        def slow_put(self, key, payload):
            time.sleep(0.05)
            return real_put(self, key, payload)

        monkeypatch.setattr(cache_mod.ResultCache, "put", slow_put)
        payload = inline_payload()
        payload["_trace"] = {"trace_id": "ab" * 16, "parent": "cd" * 8}
        cold = execute_payload("simulate", payload, str(tmp_path))
        assert list(cold["spans"]) == ["cache_probe", "trace_gen",
                                       "simulate", "cache_put"]
        assert cold["spans"]["cache_put"] >= 0.05
        assert cold["spans"]["simulate"] < 0.05
        names = [s["name"] for s in cold["trace_spans"]]
        assert names == ["cache.probe", "trace.gen", "engine.simulate",
                         "cache.put"]

    def test_inline_modes_cached_separately(self, tmp_path):
        base = execute_payload("simulate", inline_payload("baseline"),
                               str(tmp_path))
        red = execute_payload("simulate", inline_payload("redsoc"),
                              str(tmp_path))
        assert base["key"] != red["key"]

    def test_verify_batch(self, tmp_path):
        result = execute_payload("verify",
                                 {"seed": 3, "budget": 3,
                                  "metamorphic": False},
                                 str(tmp_path))
        assert result["ok"] is True
        assert result["programs_run"] == 3

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown work kind"):
            execute_payload("transmogrify", {}, str(tmp_path))


class TestTraceMemoSoak:
    """A long-lived worker fed many distinct named workloads keeps its
    trace memo within budget and frees every evicted trace."""

    SCALES = range(10, 60)          # 50 distinct crc traces
    BUDGET = 1024                   # dynamic entries: a few traces

    def test_memo_stays_bounded(self, tmp_path, monkeypatch):
        traces = []
        real = jobs_mod.generate_trace

        def recording(program, **kwargs):
            trace = real(program, **kwargs)
            traces.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(jobs_mod, "_TRACE_MEMO", OrderedDict())
        monkeypatch.setattr(jobs_mod, "TRACE_MEMO_ENTRIES", self.BUDGET)
        monkeypatch.setattr(jobs_mod, "generate_trace", recording)
        memo = jobs_mod._TRACE_MEMO
        # reference counting alone must free evicted traces: neither
        # their lowered columns nor the generator's compiled blocks may
        # keep the trace or its entry list alive in a cycle
        gc.collect()
        gc.disable()
        try:
            before = live_entries()
            for scale in self.SCALES:
                result = execute_payload(
                    "simulate", {"suite": "mibench", "bench": "crc",
                                 "core": "small", "mode": "redsoc",
                                 "scale": scale}, str(tmp_path))
                assert result["cycles"] > 0 and not result["cache_hit"]
                held = sum(len(t) for t in memo.values())
                assert held <= self.BUDGET or len(memo) == 1
            live = [ref() for ref in traces if ref() is not None]
            entries = live_entries() - before
        finally:
            gc.enable()
        assert len(traces) == len(self.SCALES)
        assert len(memo) < len(self.SCALES)
        assert {id(t) for t in live} == {id(t) for t in memo.values()}
        assert entries == sum(len(t) for t in memo.values())


class TestWorkerPool:
    def test_runs_work_and_reports_pids(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path))
            try:
                pids = await pool.warm_up()
                assert len(pids) == 1
                result = await pool.run("simulate", inline_payload())
                assert result["cycles"] > 0
            finally:
                pool.shutdown()
        run(main())

    def test_deadline_enforced(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path))
            try:
                await pool.warm_up()
                with pytest.raises(asyncio.TimeoutError):
                    await pool.run("sleep", {"seconds": 5.0},
                                   deadline_s=0.1)
            finally:
                pool.shutdown()
        run(main())

    def test_sigkill_mid_request_respawns_and_retries(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path), backoff_base_s=0.01)
            try:
                await pool.warm_up()
                victim = pool.worker_pids()[0]
                task = asyncio.ensure_future(
                    pool.run("sleep", {"seconds": 1.5}))
                await asyncio.sleep(0.2)     # in flight on the victim
                os.kill(victim, signal.SIGKILL)
                result = await asyncio.wait_for(task, timeout=30)
                # retried on a fresh worker, not the dead one
                assert result["worker"] != f"pid-{victim}"
                assert pool.metrics.counter(
                    "serve.worker_crashes").value >= 1
                assert pool.metrics.counter(
                    "serve.worker_respawns").value >= 1
                assert pool.worker_pids() and \
                    victim not in pool.worker_pids()
            finally:
                pool.shutdown()
        run(main())

    def test_retry_budget_exhausts_to_worker_crash(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path), max_retries=0,
                              backoff_base_s=0.01)
            try:
                await pool.warm_up()
                victim = pool.worker_pids()[0]
                task = asyncio.ensure_future(
                    pool.run("sleep", {"seconds": 3.0}))
                await asyncio.sleep(0.2)
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrash):
                    await asyncio.wait_for(task, timeout=30)
            finally:
                pool.shutdown()
        run(main())

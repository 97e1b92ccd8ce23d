"""serve-cold: open-loop HTTP traffic at fixed rates.

Every rate step runs against a freshly spawned ``repro.serve start``
daemon with its default workers and a fresh result cache, and ends in a
burst well above capacity whose drain rate is the throughput.  The
requests share nothing, so worker hand-off, trace generation,
simulation and cache writes are all on the latency path.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import benchstats
import inputs
import spanlog
from benchstats import Sample, StepResult
from common import (HERE, ROOT, SETUP_SAMPLES, Measurement, Workspace,
                    vm_hwm_kb)
from layers import common_layers, load_trace_dir, serve_breakdown
from openloop import HttpTransport, even_schedule, run_open_loop

#: sender threads, one keep-alive connection each: nproc, at most 2
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
ANNOUNCE_TIMEOUT_S = 60.0
#: a predicted cycle count this far off the reference is a wrong output
ESTIMATE_RATIO = (0.5, 2.0)


#: (arrival rate in requests/s, share of the run's seconds) of each
#: step; every step runs on its own daemon, and the latencies of all
#: steps feed p50 and the tail.  Both rates stay at or below ~40% of
#: the capacity of a 2-CPU host (its bursts drain 9-13 req/s): the
#: higher the rate, the more queueing multiplies every swing in host
#: speed (the tail at 5.5 req/s spread 2.5x as much as at 2.5 req/s)
STEPS: Tuple[Tuple[float, float], ...] = ((2.5, 0.5), (4.0, 0.5))
#: (arrival rate, share of the run's seconds) of the burst sent to each
#: step's daemon once the step's timed window is over: several times
#: the capacity, so the backlog builds at once and the rate at which
#: the daemon drains it is the capacity it sustains
BURST = (64.0, 0.04)
#: simulate tail-latency limit for ``serve.max_rps``
LIMIT_MS = 1000.0
TIMEOUT_S = 30.0


class Daemon:
    """One ``repro.serve start`` process on an ephemeral port."""

    def __init__(self, ws: Workspace, cache_dir: Path,
                 span_dir: Optional[Path] = None,
                 trace_dir: Optional[Path] = None) -> None:
        args = ["start", "--port", "0", "--cache-dir", str(cache_dir)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        if span_dir is not None:
            cmd = [sys.executable, str(HERE / "child.py"), "serve",
                   "--span-dir", str(span_dir), "--", *args]
        else:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        self._log = open(ws.fresh("serve-log") / "stderr.txt", "w")
        launched = time.monotonic()
        self.proc = subprocess.Popen(cmd, env=ws.env(), cwd=str(ROOT),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - launched

    def _await_port(self) -> int:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving on http://"):
                    address = line.split("http://", 1)[1].split()[0]
                    return int(address.rsplit(":", 1)[1])
        raise RuntimeError("serve daemon never announced its port")

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=10.0)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def metrics(self) -> Dict[str, float]:
        """Unlabelled series of ``/metrics`` (counters, gauges and
        histogram sums/counts)."""
        out: Dict[str, float] = {}
        for line in self.get("/metrics").splitlines():
            if line.startswith("#") or "{" in line or not line.strip():
                continue
            name, value = line.split()[:2]
            out[name] = float(value)
        return out

    def rss_mb(self) -> float:
        """Peak resident memory of the daemon plus its live workers."""
        pids = json.loads(self.get("/v1/status"))["workers"]["pids"]
        return sum(vm_hwm_kb(p) for p in [self.proc.pid, *pids]) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def make_classifier(reference: Dict[str, int]):
    """Checks each answer against the reference engine's cycles."""

    def classify(kind: str, body: Dict[str, Any], status: int,
                 payload: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        if status != 200 or not isinstance(payload, dict):
            return {"ok": False, "error": f"http-{status}"}
        result = payload["result"]
        served = payload.get("served", "")
        expected = inputs.expected_cycles(kind, body, reference)
        worker_s = None
        if kind == "estimate":
            lo, hi = ESTIMATE_RATIO
            ok = lo * expected[0] <= result["cycles"] <= hi * expected[0]
            if served == "worker":
                worker_s = result["predict_latency_us"] / 1e6
            return {"ok": ok, "error": "" if ok else "wrong-estimate",
                    "served": served, "worker_s": worker_s,
                    "cache_hit": result.get("cache_hit")}
        jobs = result["jobs"] if kind == "sweep" else [result]
        ok = [job["cycles"] for job in jobs] == expected
        if served == "worker":
            # a sweep's jobs run side by side: the slowest one blocks
            worker_s = max(job["wall_time_s"] for job in jobs)
        return {"ok": ok, "error": "" if ok else "wrong-cycles",
                "served": served, "worker_s": worker_s,
                "cache_hit": all(job["cache_hit"] for job in jobs)}

    return classify


COUNTERS = ("lru_hits", "estimate_inline", "singleflight_coalesced",
            "rejected_queue_full", "rejected_draining", "worker_retries",
            "queue_wait_us_sum", "queue_wait_us_count")


def measure(ws: Workspace, seed: int, seconds: float,
            traced: bool) -> Measurement:
    classify = make_classifier(inputs.load_reference())
    # set-up probes: start, announce, drain
    probe_cache = ws.fresh("serve-probe-cache")
    setups: List[float] = []
    while len(setups) + len(STEPS) < SETUP_SAMPLES:
        daemon = Daemon(ws, probe_cache)
        daemon.stop()
        setups.append(daemon.setup_s)

    steps: List[StepResult] = []
    bursts: List[StepResult] = []
    step_info: List[Dict[str, Any]] = []
    burst_rate, burst_share = BURST
    burst_count = max(1, int(round(burst_rate * seconds * burst_share)))
    for index, (rate, share) in enumerate(STEPS):
        count = max(1, int(round(rate * seconds * share)))
        count = min(count, inputs.COLD_MAX_REQUESTS - burst_count)
        # the burst continues the step's request sequence: it shares
        # nothing with the requests the step already sent
        requests = inputs.cold_requests(seed, index, count + burst_count)
        span_dir = ws.fresh("serve-spans") if traced else None
        trace_dir = ws.fresh("serve-trace") if traced else None
        daemon = Daemon(ws, ws.fresh("serve-cold-cache"), span_dir,
                        trace_dir)

        def send(rate: float, part: Sequence[Tuple[str, Dict[str, Any]]]
                 ) -> List[Sample]:
            return run_open_loop(
                even_schedule(rate, part),
                lambda: HttpTransport("127.0.0.1", daemon.port,
                                      TIMEOUT_S),
                classify, connections=CONNECTIONS)

        try:
            before = daemon.metrics()
            # spanlog spans carry monotonic seconds, the daemon's
            # trace-dir spans wall-clock microseconds
            start, start_us = time.monotonic(), time.time() * 1e6
            samples = send(rate, requests[:count])
            timed, timed_us = time.monotonic(), time.time() * 1e6
            burst = send(burst_rate, requests[count:])
            window = (start, time.monotonic())
            after = daemon.metrics()
            rss = daemon.rss_mb()
        finally:
            daemon.stop()
        delta = {c: after.get(f"redsoc_serve_{c}", 0.0)
                 - before.get(f"redsoc_serve_{c}", 0.0) for c in COUNTERS}
        steps.append(StepResult(rate, samples))
        bursts.append(StepResult(burst_rate, burst))
        step_info.append({"setup_s": daemon.setup_s, "rss_mb": rss,
                          "delta": delta, "pid": daemon.proc.pid,
                          "window": window,
                          "timed_window": (start, timed),
                          "timed_window_us": (start_us, timed_us),
                          "span_dir": span_dir,
                          "trace_dir": trace_dir})

    setups.extend(info["setup_s"] for info in step_info)
    return _summarize(steps, bursts, step_info, setups)


def _summarize(steps: List[StepResult], bursts: List[StepResult],
               step_info: List[Dict[str, Any]],
               setups: List[float]) -> Measurement:
    """End-to-end metrics and report lines."""
    samples = [s for step in steps + bursts for s in step.samples]
    timed = [s for step in steps for s in step.samples if s.ok]
    latency_ms = [s.latency_s * 1e3 for s in timed]
    tail = benchstats.tail(latency_ms)
    rps = benchstats.max_rps(steps + bursts, LIMIT_MS)
    drains = [benchstats.drain_rps(burst.samples) for burst in bursts]
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(i["rss_mb"] for i in step_info),
        "throughput_per_s": statistics.median(drains),
        "p50_ms": statistics.median(latency_ms),
        "tail_ms": tail.value,
    }
    failed = benchstats.failures(samples)
    wrong = sum(1 for s in samples if s.error.startswith("wrong"))
    lines = [f"serve-cold: {len(steps)} open-loop steps, each "
             f"followed by a burst, {CONNECTIONS} keep-alive "
             f"connections, limit {LIMIT_MS:g} ms on the "
             f"simulate tail"]
    for step, burst, drain, info in zip(steps, bursts, drains, step_info):
        served: Dict[str, int] = {}
        for s in step.samples:
            served[s.served or "failed"] = served.get(s.served or "failed",
                                                      0) + 1
        worker = [s for s in step.samples if s.served == "worker"]
        hits = sum(1 for s in worker if s.cache_hit)
        lines.append(
            f"  step {step.rate:g} req/s: n={len(step.samples)} "
            f"failed={step.failed} simulate_tail="
            f"{step.tail_ms('simulate'):.1f} ms lag_grows="
            f"{benchstats.lag_grows(step.samples, step.rate)} "
            f"meets={step.meets(LIMIT_MS)} setup="
            f"{info['setup_s']:.3f} s rss={info['rss_mb']:.1f} MB "
            f"served_by={served} worker_cache_hit={hits}/{len(worker)}; "
            f"burst {burst.rate:g} req/s: n={len(burst.samples)} "
            f"failed={burst.failed} drain={drain:.1f} req/s")
    for kind in ("simulate", "estimate", "sweep"):
        values = [s.latency_s * 1e3 for s in timed if s.kind == kind]
        if not values:
            continue
        line = (f"  serve.{kind}_p50_ms = "
                f"{statistics.median(values):.2f} ms")
        if kind != "sweep":
            t = benchstats.tail(values)
            line += (f", serve.{kind}_tail_ms = {t.value:.2f} ms "
                     f"({t.label}, n={t.samples})")
        lines.append(line)
    lines.append(f"  serve.tail_ms = {tail.value:.2f} ms ({tail.label}, "
                 f"n={tail.samples})")
    lines.append(f"  serve.max_rps = {rps:g} req/s (the rule over the "
                 f"fixed rates {sorted({s.rate for s in steps + bursts})}"
                 f", which sit well below or well above capacity: a "
                 f"pass/fail check, not a measure)")
    lines.append(f"  serve.drain_rps = {statistics.median(drains):.1f} "
                 f"req/s (median over the bursts of correct answers / "
                 f"first due to last answer) = throughput_per_s")
    lines.append(f"  failed_frac = "
                 f"{benchstats.failed_frac(len(samples), failed):.4f} "
                 f"({wrong} wrong outputs)")
    raw = {"steps": steps, "bursts": bursts, "step_info": step_info}
    return Measurement(e2e, len(samples), failed, wrong, lines, raw)


def layers(plain: Measurement, traced: Measurement) -> Dict[str, float]:
    """Per-layer metrics of the traced pass.  Latency breakdowns and
    the reconciliation cover the steps' timed windows (a burst's
    backlog would swamp them); counters and spans cover the bursts
    too, spans only while requests were being sent and answered (not
    daemon start-up)."""
    steps: List[StepResult] = traced.raw["steps"]
    info = traced.raw["step_info"]
    spans: List[Dict[str, Any]] = []
    daemon_spans: List[Dict[str, Any]] = []
    for step in info:
        start, end = step["window"]
        timed_start, timed_end = step["timed_window"]
        for span in spanlog.load(step["span_dir"]):
            if start <= span["s"] <= end:
                spans.append(span)
            if span["pid"] == step["pid"] \
                    and timed_start <= span["s"] <= timed_end:
                daemon_spans.append(span)
    # the daemon's request spans, split by layer; the daemon's own
    # layer calls (inline estimates) ran inside them
    layer_s: Dict[str, float] = {}
    handoff: List[float] = []
    for step in info:
        part = serve_breakdown(load_trace_dir(step["trace_dir"]),
                               step["timed_window_us"])
        handoff.extend(part.handoff_s)
        for layer, seconds in part.layer_s.items():
            layer_s[layer] = layer_s.get(layer, 0.0) + seconds
    for layer, seconds in spanlog.layer_self(daemon_spans).items():
        layer_s[layer] = layer_s.get(layer, 0.0) + seconds
        layer_s["serve"] = layer_s.get("serve", 0.0) - seconds

    timed = [s for step in steps for s in step.samples]
    ok = [s for s in timed if s.ok]
    worker = [s for s in ok if s.served == "worker"]
    front = [s.latency_s - (s.worker_s or 0.0) for s in ok]
    delta = {c: sum(i["delta"][c] for i in info) for c in COUNTERS}
    # the counter deltas span each step and its burst
    sent_samples = [s for step in steps + traced.raw["bursts"]
                    for s in step.samples]
    sent = len(sent_samples)
    estimates = sum(1 for s in sent_samples if s.kind == "estimate")
    inline = [s["dur"] for s in spans if s["n"] == "predict.estimate"
              and s.get("a", {}).get("inline")
              and s.get("a", {}).get("answered")]
    simulated = spanlog.count(spans, "core.simulate")
    generated = spanlog.count(spans, "pipeline.generate_trace")

    out = common_layers(spans, per=1)
    out.update({
        "campaign.cache_hit_ratio": sum(1 for s in worker if s.cache_hit)
        / len(worker) if worker else 0.0,
        "campaign.trace_reuse": simulated / generated if generated else 0.0,
        "serve.worker_ms": statistics.median(
            [s.worker_s * 1e3 for s in worker]) if worker else 0.0,
        "serve.front_ms": statistics.median(front) * 1e3 if front else 0.0,
        "serve.queue_wait_ms": delta["queue_wait_us_sum"]
        / delta["queue_wait_us_count"] / 1e3
        if delta["queue_wait_us_count"] else 0.0,
        "serve.generator_lag_ms": sum(s.lag_s for s in timed)
        / len(timed) * 1e3 if timed else 0.0,
        "serve.lru_hit_ratio": delta["lru_hits"] / sent if sent else 0.0,
        "serve.inline_estimate_ratio": delta["estimate_inline"] / estimates
        if estimates else 0.0,
        "serve.coalesced": delta["singleflight_coalesced"],
        "serve.rejected": delta["rejected_queue_full"]
        + delta["rejected_draining"],
        "serve.worker_retries": delta["worker_retries"],
        "serve.handoff_ms": statistics.median(handoff) * 1e3
        if handoff else 0.0,
        "predict.inline_ms": sum(inline) / len(inline) * 1e3
        if inline else 0.0,
    })
    # the untraced clients' summed latency against the traced daemon's
    # request spans: the remainder is the time no daemon span covers
    # (the client, the socket, HTTP parsing and writing) plus tracing
    # overhead, negative when tracing inflated the spans beyond it
    wall = sum(s.latency_s for step in plain.raw["steps"]
               for s in step.samples if s.ok)
    out.update({f"recon.{k}": v
                for k, v in benchstats.reconcile(wall, layer_s).items()})
    return out

"""campaign-cold: repeated cold ``run_campaign`` launches.

Each repetition is a fresh process with a fresh result cache and
``workers = os.cpu_count()`` (the CLI default), so its pool forks from
a parent that never generated a trace and nothing can be warm.  The
18-job matrix (3 suites x 2 cores x 3 modes) shares one trace per
benchmark across six jobs, so trace reuse and scheduling show.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Any, Dict, List

import benchstats
import inputs
import spanlog
from common import Measurement, Workspace, run_child, setup_probes
from layers import common_layers, recon

#: never launch more repetitions than this, however fast they are
MAX_REPEATS = 12


def measure(ws: Workspace, seed: int, seconds: float,
            traced: bool) -> Measurement:
    jobs = inputs.campaign_jobs(seed)
    reference = inputs.load_reference()
    runs: List[Dict[str, Any]] = []
    span_dirs = []
    start = time.monotonic()
    while len(runs) < MAX_REPEATS:
        if runs:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(runs) > seconds:
                break
        cache_dir = ws.fresh("campaign-cache")
        span_dir = ws.fresh("campaign-spans") if traced else None
        out = run_child(ws, "campaign",
                        {"jobs": jobs, "cache_dir": str(cache_dir)},
                        span_dir)
        shutil.rmtree(cache_dir, ignore_errors=True)
        runs.append(out)
        span_dirs.append(span_dir)

    wrong = missing = hits = 0
    rates: List[float] = []
    for out in runs:
        records = out["records"]
        missing += len(jobs) - len(records)
        cycles = 0
        for job, rec in zip(jobs, records):
            expected = reference[inputs.job_key(job)]
            if rec["cycles"] != expected or rec["label"] != (
                    f"{job['suite']}/{job['bench']}@{job['core']}:"
                    f"{job['mode']}"):
                wrong += 1
            hits += rec["cache_hit"]
            cycles += rec["cycles"]
        rates.append(cycles / out["wall_s"])

    setups = [o["setup_s"] for o in runs] + setup_probes(
        ws, "campaign", {"jobs": jobs, "cache_dir": ""}, len(runs))
    attempted = len(jobs) * len(runs)
    # a campaign user waits for the whole matrix: its wall time is the
    # latency (per-job times are bimodal across suites, and which job
    # pays for a trace depends on scheduling)
    wall_ms = [o["wall_s"] * 1e3 for o in runs]
    tail = benchstats.tail(wall_ms)
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([o["rss_mb"] for o in runs]),
        "throughput_per_s": statistics.median(rates),
        "p50_ms": statistics.median(wall_ms),
        "tail_ms": tail.value,
    }
    lines = [
        f"campaign-cold: {len(runs)} cold campaigns x {len(jobs)} jobs, "
        f"workers={runs[0]['workers']}, processes={runs[0]['processes']}",
        f"  campaign.sim_cyc_per_s = {e2e['throughput_per_s']:.1f} cyc/s "
        f"(median of {[round(r) for r in rates]})",
        f"  campaign.wall_p50_ms = {e2e['p50_ms']:.1f} ms, "
        f"campaign.wall_tail_ms = {tail.value:.1f} ms "
        f"({tail.label}, n={tail.samples})",
        f"  served_by: worker {attempted - hits}/{attempted}, "
        f"cache_hit {hits}/{attempted} (a cold run must show 0)",
        f"  failed_frac = {benchstats.failed_frac(attempted, wrong + missing):.4f}"
        f" ({wrong} wrong cycle counts, {missing} missing records)",
    ]
    raw = {"runs": runs, "span_dirs": span_dirs, "jobs": len(jobs),
           "hits": hits}
    return Measurement(e2e, attempted, wrong + missing, wrong, lines, raw)


def layers(plain: Measurement, traced: Measurement) -> Dict[str, float]:
    runs = traced.raw["runs"]
    n = len(runs)
    spans: List[Dict[str, Any]] = []
    straggler: List[float] = []
    for out, span_dir in zip(runs, traced.raw["span_dirs"]):
        own = spanlog.load(span_dir)
        spans.extend(own)
        # each pool worker's last job chunk ends when it finishes
        finish = [end for _, end in spanlog.process_windows(
            s for s in own if s["n"] == "campaign.execute_jobs").values()]
        if finish:
            straggler.append(max(finish) - sum(finish) / len(finish))
    simulated = spanlog.count(spans, "core.simulate") + spanlog.attr_sum(
        spans, "core.simulate_batch", "lanes")
    generated = spanlog.count(spans, "pipeline.generate_trace")
    attempted = traced.raw["jobs"] * n
    out = common_layers(spans, per=n)
    out.update({
        "campaign.cache_hit_ratio": traced.raw["hits"] / attempted,
        "campaign.trace_reuse": simulated / generated if generated else 0.0,
        "campaign.straggler_s": statistics.median(straggler)
        if straggler else 0.0,
    })
    busy = [o["wall_s"] * o["workers"] for o in plain.raw["runs"]]
    out.update(recon(statistics.median(busy), spans, per=n))
    return out

"""fuzz: repeated ``run_fuzz`` sessions, as the nightly leg runs them.

Every session is a fresh process running ``run_fuzz`` with
``metamorphic=True`` over every registered engine, on a session seed
the run's seed picks from each cost stratum of a fixed universe
(``inputs.fuzz_session_seed``).  A finding fails the run.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import benchstats
import inputs
import spanlog
from common import Measurement, Workspace, run_child, setup_probes
from layers import common_layers, recon

MAX_SESSIONS = 20


def measure(ws: Workspace, seed: int, seconds: float,
            traced: bool) -> Measurement:
    entries = inputs.load_fuzz_entries()
    sessions: List[Dict[str, Any]] = []
    span_dirs = []
    start = time.monotonic()
    while len(sessions) < MAX_SESSIONS:
        if sessions:
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(sessions) > seconds:
                break
        span_dir = ws.fresh("fuzz-spans") if traced else None
        out = run_child(ws, "fuzz", {
            "seed": inputs.fuzz_session_seed(seed, len(sessions), entries),
            "budget": inputs.FUZZ_SESSION_PROGRAMS}, span_dir)
        sessions.append(out)
        span_dirs.append(span_dir)

    setups = [o["setup_s"] for o in sessions] + setup_probes(
        ws, "fuzz", {"seed": 0, "budget": inputs.FUZZ_SESSION_PROGRAMS},
        len(sessions))
    programs = sum(o["programs"] for o in sessions)
    findings = [f for o in sessions for f in o["findings"]]
    per_program_ms = [t * 1e3 for o in sessions for t in o["per_program_s"]]
    tail = benchstats.tail(per_program_ms)
    e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([o["rss_mb"] for o in sessions]),
        "throughput_per_s": programs / sum(o["wall_s"] for o in sessions),
        "p50_ms": statistics.median(per_program_ms),
        "tail_ms": tail.value,
    }
    lines = [
        f"fuzz: {len(sessions)} sessions x "
        f"{inputs.FUZZ_SESSION_PROGRAMS} programs, "
        f"engines={','.join(sessions[0]['engines'])}, metamorphic on",
        f"  fuzz.programs_per_s = {e2e['throughput_per_s']:.3f} 1/s",
        f"  fuzz.program_p50_ms = {e2e['p50_ms']:.1f} ms, "
        f"fuzz.program_tail_ms = {tail.value:.1f} ms "
        f"({tail.label}, n={tail.samples})",
        f"  failed_frac = {benchstats.failed_frac(programs, len(findings)):.4f}"
        f" ({len(findings)} findings)",
    ]
    for finding in findings:
        lines.append(f"  FINDING {finding['name']}: {finding['checks']}")
    raw = {"sessions": sessions, "span_dirs": span_dirs}
    return Measurement(e2e, programs, len(findings), len(findings),
                       lines, raw)


def layers(plain: Measurement, traced: Measurement) -> Dict[str, float]:
    n = len(traced.raw["sessions"])
    spans = [s for d in traced.raw["span_dirs"] for s in spanlog.load(d)]
    out = common_layers(spans, per=n)
    wall = statistics.median([o["wall_s"] for o in plain.raw["sessions"]])
    out.update(recon(wall, spans, per=n))
    return out

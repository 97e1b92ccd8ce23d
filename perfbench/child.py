"""One program launch under measurement, in a fresh process.

    python3 perfbench/child.py campaign SPEC.json OUT.json [--span-dir D]
    python3 perfbench/child.py fuzz SPEC.json OUT.json [--span-dir D]
    python3 perfbench/child.py serve [--span-dir D] -- <serve start args>

``campaign`` and ``fuzz`` import the package, build their inputs, note
the moment they are ready (``ready``, on the system-wide monotonic
clock the parent launched them by), run ``run_campaign`` / ``run_fuzz``
and write what they measured to OUT.json; with ``"setup_only": true``
in SPEC.json they stop once ready (a set-up time probe).  Their pool
workers fork from this process, which has never generated a trace.  ``serve`` runs the
``repro.serve start`` CLI, with the span hooks installed first when a
span directory is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import vm_hwm_kb


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


class PeakRss:
    """Peak resident memory of this process plus its children.

    VmHWM only grows, so polling each pid and keeping its last reading
    gives its peak, to within one poll interval before it exits.
    """

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        for pid in [me] + _children(me):
            kb = vm_hwm_kb(pid)
            if kb:
                self.peaks[pid] = max(self.peaks.get(pid, 0), kb)

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0


def _install(span_dir) -> None:
    if span_dir is None:
        return
    import spanlog
    spanlog.install(spanlog.SpanLog(span_dir))


def run_campaign_child(spec: dict, span_dir) -> dict:
    _install(span_dir)
    from repro.campaign.jobs import CampaignJob
    from repro.campaign.runner import run_campaign

    jobs = [CampaignJob(j["suite"], j["bench"], j["core"], j["mode"],
                        scale=j["scale"]) for j in spec["jobs"]]
    workers = os.cpu_count() or 1
    ready = time.monotonic()
    if spec.get("setup_only"):
        return {"ready": ready}
    with PeakRss() as rss:
        result = run_campaign(jobs, workers=workers,
                              cache_dir=Path(spec["cache_dir"]))
    return {
        "ready": ready, "wall_s": result.wall_time_s,
        "workers": result.workers, "rss_mb": rss.total_mb,
        "processes": len(rss.peaks),
        "records": [{"label": r.label, "suite": r.suite, "bench": r.bench,
                     "core": r.core, "mode": r.mode, "cycles": r.cycles,
                     "cache_hit": r.cache_hit, "wall_s": r.wall_time_s,
                     "worker": r.worker} for r in result.records],
    }


def run_fuzz_child(spec: dict, span_dir) -> dict:
    _install(span_dir)
    from repro.core import ENGINES
    from repro.verify.session import run_fuzz

    engines = list(ENGINES.names())
    per_program: List[float] = []
    ready = time.monotonic()
    if spec.get("setup_only"):
        return {"ready": ready}
    last = [time.perf_counter()]

    def progress(index, verdict) -> None:
        now = time.perf_counter()
        per_program.append(now - last[0])
        last[0] = now

    start = last[0]
    outcome = run_fuzz(budget=spec["budget"], seed=spec["seed"],
                       metamorphic=True, engines=engines,
                       do_shrink=False, progress=progress)
    wall = time.perf_counter() - start
    return {
        "ready": ready, "wall_s": wall, "engines": engines,
        "programs": outcome.programs_run,
        "findings": [f.to_payload() for f in outcome.findings],
        "per_program_s": per_program,
        "rss_mb": vm_hwm_kb(os.getpid()) / 1024.0,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        rest = argv[1:]
        split = rest.index("--") if "--" in rest else len(rest)
        parser = argparse.ArgumentParser(prog="child.py serve")
        parser.add_argument("--span-dir", type=Path, default=None)
        args = parser.parse_args(rest[:split])
        _install(args.span_dir)
        from repro.serve.cli import main as serve_main
        return serve_main(rest[split + 1:])

    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("what", choices=("campaign", "fuzz"))
    parser.add_argument("spec", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--span-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    run = run_campaign_child if args.what == "campaign" \
        else run_fuzz_child
    args.out.write_text(json.dumps(run(spec, args.span_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

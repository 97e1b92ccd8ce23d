"""Regenerate ``reference_cycles.json`` with the ``reference`` engine.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

Every job any workload can draw (``inputs.reference_universe``) is
simulated once on the per-cycle ``reference`` engine, the oracle every
other engine must match, with one process per CPU.  The benchmark
compares each simulated result against this table and fails the run on
any difference.  The table also holds the size (trace entries) of every
fuzz session of the universe, by which the fuzz workload balances its
sessions' cost.  Regenerate only when the timing model or the fuzz
program generator changes on purpose.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def _trace_for(job: Dict[str, Any]):
    from repro.isa.textasm import assemble_text
    from repro.pipeline.trace import generate_trace
    from repro.workloads.suites import SUITES

    if "imm" in job:
        program = assemble_text(inputs.inline_asm(job["imm"]),
                                name=inputs.inline_name(job["imm"]))
    else:
        program = SUITES[job["suite"]][job["bench"]](scale=job["scale"])
    return generate_trace(program)


def _simulate_group(jobs: List[Dict[str, Any]]) -> List[Tuple[str, int]]:
    """Reference cycles of jobs sharing one trace."""
    from repro.core import CORES, RecycleMode
    from repro.core.cpu import simulate

    trace = _trace_for(jobs[0])
    out = []
    for job in jobs:
        config = replace(CORES[job["core"]].with_mode(
            RecycleMode(job["mode"])), engine="reference")
        out.append((inputs.job_key(job), simulate(trace, config).cycles))
    return out


def _fuzz_session_entries(index: int) -> int:
    from repro.pipeline.trace import generate_trace
    from repro.verify.generator import ProgramGenerator

    generator = ProgramGenerator(inputs.fuzz_pool_seed(index))
    return sum(len(generate_trace(generator.program(k)).entries)
               for k in range(inputs.FUZZ_SESSION_PROGRAMS))


def main() -> int:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for job in inputs.reference_universe():
        trace_id = (f"inline/{job['imm']}" if "imm" in job else
                    f"{job['suite']}/{job['bench']}/{job['scale']}")
        groups.setdefault(trace_id, []).append(job)
    cycles: Dict[str, int] = {}
    sessions = range(inputs.FUZZ_STRATA * inputs.FUZZ_VARIANTS)
    with ProcessPoolExecutor(max_workers=os.cpu_count()) as pool:
        for pairs in pool.map(_simulate_group, list(groups.values())):
            cycles.update(pairs)
        fuzz = dict(zip((str(i) for i in sessions),
                        pool.map(_fuzz_session_entries, sessions)))
    payload = {"engine": "reference", "jobs": len(cycles),
               "cycles": dict(sorted(cycles.items())),
               "fuzz_session_entries": fuzz}
    inputs.REFERENCE_FILE.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(cycles)} reference cycle counts to "
          f"{inputs.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ReDSOC reproduction benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload campaign-cold --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  The run drives the public entry points
users call (``run_campaign``, the ``repro.serve start`` daemon over
HTTP, ``run_fuzz``) with the default engine, checks every simulated
cycle count against the ``reference`` engine (``reference_cycles.json``)
and prints a human-readable report followed, as the last line, by

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run measures the workload
twice, untraced and then with span hooks around every layer's public
functions, and reports the per-layer metrics.  A wrong cycle count or a
fuzz finding makes the run exit 1; a checkout without the package
exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _workloads():
    """``name -> (measure(ws, seed, seconds, traced), layers(plain,
    traced))``."""
    import wl_campaign
    import wl_fuzz
    import wl_serve

    return {"campaign-cold": (wl_campaign.measure, wl_campaign.layers),
            "serve-cold": (wl_serve.measure, wl_serve.layers),
            "fuzz": (wl_fuzz.measure, wl_fuzz.layers)}


def _preflight() -> None:
    """Fail fast, before any measurement, when the checkout is not a
    complete one (no package sources or no reference table)."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro.campaign.runner  # noqa: F401
    import repro.serve.app  # noqa: F401
    import repro.verify.session  # noqa: F401
    import inputs
    inputs.load_reference()


def main(argv=None) -> int:
    spec = _load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _preflight()
    except (ImportError, OSError) as exc:
        print(f"error: incomplete checkout ({exc})", file=sys.stderr)
        return 2

    import benchstats
    from common import Workspace

    measure, layers = _workloads()[args.workload]
    ws = Workspace()
    try:
        plain = measure(ws, args.seed, args.seconds, False)
        passes = [plain]
        if args.trace:
            traced = measure(ws, args.seed, args.seconds, True)
            passes.append(traced)
            values = layers(plain, traced)
            for m in spec["end_to_end"]:
                values[f"obs.trace_overhead_pct.{m['name']}"] = \
                    benchstats.overhead_pct(plain.e2e[m["name"]],
                                            traced.e2e[m["name"]],
                                            m["better"])
            wanted = spec["per_layer"]
        else:
            values = dict(plain.e2e)
            wanted = spec["end_to_end"]
    finally:
        ws.cleanup()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for label, m in zip(("untraced", "traced"), passes):
        print(f"[{label}] seed={args.seed} seconds={args.seconds:g}")
        for line in m.lines:
            print(line)
        for name, value in m.e2e.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    metrics: Dict[str, dict] = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                              "unit": m["unit"]}
    if args.trace:
        for m in wanted:
            print(f"  {m['name']} = {metrics[m['name']]['value']:.6g} "
                  f"{m['unit']}")
    wrong = sum(p.wrong for p in passes)
    result = {"correct": wrong == 0,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Shared plumbing: the checkout layout, child processes, results."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: no single child may outlive this (a whole run must end within 180 s)
CHILD_TIMEOUT_S = 150.0
#: set-up time is the median of at least this many launches per run
SETUP_SAMPLES = 7


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set size of a live process, in KiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workspace:
    """Scratch directories of one benchmark run, inside the checkout.

    Everything a run writes (result caches, span dumps, child outputs)
    lives under ``.perfbench-work/<pid>/`` and is removed at the end.
    """

    def __init__(self) -> None:
        self.root = ROOT / ".perfbench-work" / str(os.getpid())
        self.root.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def env(self) -> Dict[str, str]:
        """Environment of every child: the package from this checkout,
        temporary files inside the workspace."""
        env = dict(os.environ)
        paths = [str(ROOT / "src"), str(HERE)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["TMPDIR"] = str(self.root)
        env.pop("REDSOC_CACHE_DIR", None)
        return env

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass


def run_child(ws: Workspace, what: str, spec: Dict[str, Any],
              span_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Launch ``child.py <what>`` and return its measurements, with
    ``setup_s`` (launch until ready) added."""
    box = ws.fresh(what)
    spec_path, out_path = box / "spec.json", box / "out.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(HERE / "child.py"), what, str(spec_path),
           str(out_path)]
    if span_dir is not None:
        cmd += ["--span-dir", str(span_dir)]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=ws.env(), cwd=str(ROOT),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {what} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}")
    out = json.loads(out_path.read_text())
    out["setup_s"] = out["ready"] - launched
    return out


def setup_probes(ws: Workspace, what: str, spec: Dict[str, Any],
                 have: int) -> List[float]:
    """Set-up times of extra launches that stop once ready, so a run
    has ``SETUP_SAMPLES`` in all."""
    probe = dict(spec, setup_only=True)
    return [run_child(ws, what, probe)["setup_s"]
            for _ in range(max(0, SETUP_SAMPLES - have))]


@dataclass
class Measurement:
    """What one workload measured in one pass (traced or not)."""

    e2e: Dict[str, float]
    attempted: int
    failed: int
    wrong: int
    lines: List[str] = field(default_factory=list)
    #: workload-specific material for the per-layer metrics
    raw: Dict[str, Any] = field(default_factory=dict)

"""Core configuration: Table I presets + ReDSOC mode switches.

The paper evaluates three cores (Table I):

========  =====  ======  ====
param     Small  Medium  Big
========  =====  ======  ====
width       3      4      8
ROB        40     80     160
LSQ        16     32      64
RSE        32     64     128
ALU         3      4      6
SIMD        2      3      4
FP          2      3      4
========  =====  ======  ====

all at 2 GHz with 64 kB L1 / 2 MB L2 and prefetching.

``CoreConfig`` also carries every ReDSOC/ablation switch: recycling
on/off, Illustrative vs Operational RSE, skewed vs plain selection, the
slack threshold, CI precision, and MOS fusion mode (the Sec. VI-D
comparator).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.memory.hierarchy import MemoryConfig
from repro.timing.gates import DEFAULT_TECH, TechParams

from .ticks import DEFAULT_TICKS_PER_CYCLE


class SchedulerDesign(enum.Enum):
    """Slack-aware RSE flavour (Sec. IV-C)."""

    ILLUSTRATIVE = "illustrative"  # full 2P + 4GP tags, no predictions
    OPERATIONAL = "operational"    # predicted last parent/grandparent


class RecycleMode(enum.Enum):
    """Execution-timing mode of the core."""

    BASELINE = "baseline"     # conventional synchronous OOO
    REDSOC = "redsoc"         # transparent slack recycling
    MOS = "mos"               # fuse ops that fit in a single cycle


@dataclass(frozen=True)
class CoreConfig:
    """Full parameterisation of one simulated core."""

    name: str = "medium"
    front_width: int = 4
    rob_size: int = 80
    lsq_size: int = 32
    rse_size: int = 64
    alu_units: int = 4
    simd_units: int = 3
    fp_units: int = 3
    mem_ports: int = 2
    branch_units: int = 2     # dedicated branch-resolution pipes
    complex_units: int = 2    # integer multiply/divide pipes
    mispredict_penalty: int = 8       # redirect + refill cycles
    replay_penalty: int = 2           # selective-reissue bubble (cycles)
    #: predicted-taken branches the front end can follow per cycle
    taken_branches_per_cycle: int = 1

    mode: RecycleMode = RecycleMode.REDSOC
    scheduler: SchedulerDesign = SchedulerDesign.OPERATIONAL
    #: simulation backend (timing-irrelevant: both registered engines
    #: are cycle-identical, enforced by the CI backend-equivalence
    #: matrix).  ``reference`` is the per-cycle step loop; ``compiled``
    #: (the default) lowers the trace into flat columns and runs
    #: specialized straight-line code, falling back to the step loop
    #: for observed runs.  The retired names ``fast`` and ``vector``
    #: resolve to ``compiled`` (repro.core.engine.ALIASES).  The engine
    #: is part of every result-cache key, so results cached under
    #: another default miss once
    engine: str = "compiled"
    skewed_select: bool = True
    #: run the Eager-Grandparent (GP) select phase at all; False keeps
    #: transparent execution but never co-issues children with their
    #: parents — the "EGPW off" ablation the verification layer's
    #: metamorphic properties compare against
    eager_issue: bool = True
    #: eager (same-cycle-as-parent) issue allowed when the parent's CI is
    #: at or below this many ticks into its completion cycle; 7 admits
    #: any parent with at least one tick of slack (tuned per suite in
    #: the Sec. VI-C sweep)
    slack_threshold: int = 7
    #: functional units an eager (GP-phase) issue must leave free for
    #: conventional requests; 0 relies on the adaptive threshold alone
    #: (kept as an ablation knob for the Sec. IV-C trade-off)
    eager_spare_units: int = 0
    #: adapt the slack threshold at run time from observed FU-stall
    #: rates (the "simple but intelligent dynamic mechanism" of
    #: Sec. IV-C); when False the static slack_threshold is used as-is
    adaptive_threshold: bool = True
    #: adaptation window in cycles
    threshold_window: int = 128
    #: PVT corner for the slack LUT (1.0 = worst-case design corner, the
    #: paper's measurement point; < 1.0 models CPM-harvested PVT slack,
    #: > 1.0 a slow corner the LUT must cover) — see repro.core.pvt
    pvt_scale: float = 1.0
    ticks_per_cycle: int = DEFAULT_TICKS_PER_CYCLE
    tech: TechParams = DEFAULT_TECH
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    #: fixed latencies (cycles) for true-synchronous op classes
    mul_latency: int = 3
    div_latency: int = 12
    fp_latency: int = 4
    fdiv_latency: int = 12
    simd_multicycle_latency: int = 3

    def with_mode(self, mode: RecycleMode) -> "CoreConfig":
        return replace(self, mode=mode)

    def variant(self, **kwargs) -> "CoreConfig":
        """A modified copy (ablation helper)."""
        return replace(self, **kwargs)


#: Table I presets.
SMALL = CoreConfig(name="small", front_width=3, rob_size=40, lsq_size=16,
                   rse_size=32, alu_units=3, simd_units=2, fp_units=2,
                   complex_units=1, branch_units=1)
MEDIUM = CoreConfig(name="medium")
BIG = CoreConfig(name="big", front_width=8, rob_size=160, lsq_size=64,
                 rse_size=128, alu_units=6, simd_units=4, fp_units=4)

CORES = {"small": SMALL, "medium": MEDIUM, "big": BIG}

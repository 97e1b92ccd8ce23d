"""Campaign job enumeration.

A :class:`CampaignJob` names one simulation — ``(suite, benchmark,
core, mode)`` plus an optional scale override — without holding any
heavyweight state, so jobs pickle cheaply across process boundaries.
Traces and configs are materialised lazily by :func:`job_trace` /
:func:`job_config`; traces are memoised per process in a bounded LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CORES, CoreConfig, ENGINES, RecycleMode
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES, default_scale

#: evaluation order used by every figure (matches the bench harness)
SUITE_ORDER: Tuple[str, ...] = ("spec", "mibench", "ml")
CORE_ORDER: Tuple[str, ...] = ("big", "medium", "small")
MODE_ORDER: Tuple[str, ...] = tuple(m.value for m in RecycleMode)

#: one small benchmark per suite — the CI smoke campaign
SMOKE_BENCHMARKS: Dict[str, str] = {
    "spec": "soplex",
    "mibench": "bitcnt",
    "ml": "pool0",
}


@dataclass(frozen=True, order=True)
class CampaignJob:
    """One (suite, benchmark, core, mode) simulation request.

    ``engine`` picks the simulation backend; ``None`` means the config
    default.  Every registered engine is cycle-identical (CI-enforced),
    so the engine is not part of a job's identity — labels and
    regression-reference keys stay engine-free on purpose, which is
    what lets the backend-equivalence matrix diff engines against one
    shared reference.
    """

    suite: str
    bench: str
    core: str
    mode: str
    scale: Optional[int] = None
    engine: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.bench}@{self.core}:{self.mode}"


def _validate(kind: str, requested: Sequence[str],
              known: Sequence[str]) -> List[str]:
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise ValueError(
            f"unknown {kind} {unknown!r}; choose from {sorted(known)}")
    return list(requested)


def enumerate_jobs(suites: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   cores: Optional[Sequence[str]] = None,
                   modes: Optional[Sequence[str]] = None,
                   scale: Optional[int] = None,
                   engine: Optional[str] = None) -> List[CampaignJob]:
    """Expand a selection into evaluation-ordered jobs.

    ``None`` means "all".  *benchmarks* filters within the selected
    suites; a benchmark name that matches no selected suite is an
    error, so typos fail loudly instead of silently shrinking the run.
    *engine* pins every job to one simulation backend.
    """
    suites = _validate("suite(s)", suites or SUITE_ORDER, tuple(SUITES))
    cores = _validate("core(s)", cores or CORE_ORDER, tuple(CORES))
    modes = _validate("mode(s)", modes or MODE_ORDER, MODE_ORDER)
    if engine is not None:
        engine = ENGINES.resolve(engine)

    if benchmarks is not None:
        all_benches = {b for s in suites for b in SUITES[s]}
        _validate("benchmark(s)", benchmarks, tuple(all_benches))

    jobs: List[CampaignJob] = []
    for suite in suites:
        for bench in SUITES[suite]:
            if benchmarks is not None and bench not in benchmarks:
                continue
            for core in cores:
                for mode in modes:
                    jobs.append(CampaignJob(suite, bench, core, mode,
                                            scale=scale, engine=engine))
    return jobs


def smoke_jobs(modes: Optional[Sequence[str]] = None,
               scale: Optional[int] = None,
               engine: Optional[str] = None) -> List[CampaignJob]:
    """The CI smoke set: one small benchmark per suite, small core."""
    jobs: List[CampaignJob] = []
    for suite in SUITE_ORDER:
        jobs.extend(enumerate_jobs(
            suites=[suite], benchmarks=[SMOKE_BENCHMARKS[suite]],
            cores=["small"], modes=modes, scale=scale, engine=engine))
    return jobs


#: dynamic-entry budget of the per-process trace memo.  Traces carry
#: their lowered columns, so a long-lived worker that sees many
#: distinct workloads would otherwise pin all of them; campaign jobs
#: arrive grouped by trace, so keeping the latest few is enough for
#: every (core, mode) job to reuse one
TRACE_MEMO_ENTRIES = 16_384

#: per-process LRU of generated traces, least recently used first; it
#: always keeps the most recent trace, even one over the budget
_TRACE_MEMO: OrderedDict[Tuple[str, str, Optional[int]], Trace] = OrderedDict()


def job_trace(job: CampaignJob) -> Trace:
    """Materialise (and memoise) the dynamic trace for *job*."""
    memo_key = (job.suite, job.bench, job.scale)
    trace = _TRACE_MEMO.get(memo_key)
    if trace is not None:
        _TRACE_MEMO.move_to_end(memo_key)
        return trace
    builder = SUITES[job.suite][job.bench]
    if job.scale is not None:
        kwargs: Dict[str, int] = {"scale": job.scale}
    else:
        kwargs = default_scale(job.suite, job.bench)
    trace = generate_trace(builder(**kwargs))
    _TRACE_MEMO[memo_key] = trace
    held = sum(len(t) for t in _TRACE_MEMO.values())
    while held > TRACE_MEMO_ENTRIES and len(_TRACE_MEMO) > 1:
        _, evicted = _TRACE_MEMO.popitem(last=False)
        held -= len(evicted)
        # the lowered columns point back at their trace: unlinking
        # them lets reference counting free both now, not at a later
        # GC pass
        evicted.__dict__.pop("_lowered", None)
    return trace


def job_config(job: CampaignJob) -> CoreConfig:
    """Table-I preset for *job*'s core, switched to *job*'s mode (and
    pinned to *job*'s engine, by canonical name, when one was
    requested)."""
    config = CORES[job.core].with_mode(RecycleMode(job.mode))
    if job.engine is not None:
        config = replace(config, engine=ENGINES.resolve(job.engine))
    return config

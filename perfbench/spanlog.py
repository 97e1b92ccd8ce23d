"""In-memory spans around the public functions of each layer.

``install(log)`` replaces each traced function *where its caller looks
it up* (the module attribute or class attribute the caller reads) with a
wrapper that records ``(name, parent, start, end, attrs)``.  Spans stay
in memory and each process writes its own ``spans-<pid>.json`` when it
exits: the parent through ``atexit``, pool workers (forked from a
parent that installed the hooks) through a multiprocessing finalizer,
which runs when the pool shuts its workers down.

Span names are ``<layer>.<what>``; a span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


class SpanLog:
    """Spans of one process, kept in memory until it exits."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        atexit.register(self.dump)
        # pool workers: forget the parent's spans and dump on exit
        multiprocessing.util.register_after_fork(self, SpanLog._in_child)

    def _in_child(self) -> None:
        self.spans = []
        self._local = threading.local()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[AttrFn] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"n": name, "i": next(self._ids),
                    "p": stack[-1] if stack else 0,
                    "s": time.monotonic(), "e": None}
            stack.append(span["i"])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span["e"] = time.monotonic()
                self.spans.append(span)
            if attrs is not None:
                span["a"] = attrs(args, kwargs, result)
            return result
        return traced

    def patch(self, owner: Any, attr: str, name: str,
              attrs: Optional[AttrFn] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def dump(self) -> None:
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"pid": os.getpid(),
                                    "spans": self.spans}))
        self.spans = []


def _entries(args, kwargs, trace) -> Dict[str, Any]:
    return {"entries": len(trace.entries)}


def _cycles(args, kwargs, result) -> Dict[str, Any]:
    return {"cycles": result.cycles}


def _batch_cycles(args, kwargs, results) -> Dict[str, Any]:
    return {"cycles": sum(r.cycles for r in results),
            "lanes": len(results)}


def _estimate(args, kwargs, result) -> Dict[str, Any]:
    return {"inline": kwargs.get("allow_generate") is False,
            "answered": result is not None}


def install(log: SpanLog) -> None:
    """Wrap every layer's public entry points in this process."""
    import repro.campaign.cache as cache
    import repro.campaign.jobs as jobs
    import repro.campaign.runner as runner
    import repro.core.compiled as compiled
    import repro.core.cpu as cpu
    import repro.core.vector as vector
    import repro.pipeline.trace as ptrace
    import repro.predict.service as service
    import repro.serve.workers as workers
    import repro.verify.oracle as oracle
    import repro.verify.session as session
    from repro.core.engine import ENGINES

    # pipeline: every module binding of the trace generator; modules
    # importing it lazily read the repro.pipeline.trace attribute
    for module in (ptrace, jobs, oracle, cpu):
        log.patch(module, "generate_trace", "pipeline.generate_trace",
                  _entries)
    log.patch(oracle, "generate_trace_compiled",
              "pipeline.generate_trace_compiled", _entries)

    # core: every engine run goes through the registry's create/batch
    create, batch = ENGINES.create, ENGINES.batch

    def traced_create(name, trace, config, *, obs=None):
        sim = create(name, trace, config, obs=obs)
        sim.run = log.wrap("core.simulate", sim.run, _cycles)
        return sim

    def traced_batch(name):
        fn = batch(name)
        return None if fn is None else log.wrap("core.simulate_batch", fn,
                                                _batch_cycles)

    ENGINES.create = traced_create
    ENGINES.batch = traced_batch
    for module in (compiled, vector):
        log.patch(module, "lower_trace", "core.lower")

    # campaign: cache tiers, fingerprinting, the per-worker job loop
    for method in ("get", "get_trace_fingerprint"):
        log.patch(cache.ResultCache, method, "campaign.cache_probe")
    for method in ("put", "put_trace_fingerprint"):
        log.patch(cache.ResultCache, method, "campaign.cache_put")
    for module in (cache, runner, service):
        log.patch(module, "trace_fingerprint", "campaign.fingerprint")
    log.patch(runner, "_execute_jobs", "campaign.execute_jobs")

    # predict
    log.patch(service, "extract_features", "predict.extract")
    log.patch(service, "_materialise_trace", "predict.materialise")
    log.patch(service, "estimate_payload", "predict.estimate", _estimate)

    # verify and the golden ISA model
    log.patch(session, "check_program", "verify.check")
    log.patch(oracle, "audit_run", "verify.audit")
    log.patch(oracle, "check_timing_relations", "verify.metamorphic")
    log.patch(oracle, "run_program", "isa.interpret")

    # serve: one span per work unit inside a pool worker
    log.patch(workers, "execute_payload", "serve.execute")


# -- reading the dumps back -----------------------------------------------------

def load(span_dir: Path) -> List[Dict[str, Any]]:
    """Every span of every process, with ``pid``, ``parent`` (name),
    ``dur`` and ``self`` (seconds) filled in."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(span_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        own = doc["spans"]
        by_id = {s["i"]: s for s in own}
        child_s: Dict[int, float] = {}
        for span in own:
            span["pid"] = doc["pid"]
            span["dur"] = span["e"] - span["s"]
            child_s[span["p"]] = child_s.get(span["p"], 0.0) + span["dur"]
        for span in own:
            parent = by_id.get(span["p"])
            span["parent"] = parent["n"] if parent else ""
            span["self"] = span["dur"] - child_s.get(span["i"], 0.0)
        spans.extend(own)
    return spans


def total(spans: Iterable[Dict[str, Any]], *names: str,
          parent: Optional[str] = None) -> float:
    """Summed duration of the named spans (under ``parent`` if given)."""
    return sum(s["dur"] for s in spans if s["n"] in names
               and (parent is None or s["parent"] == parent))


def count(spans: Iterable[Dict[str, Any]], name: str) -> int:
    return sum(1 for s in spans if s["n"] == name)


def attr_sum(spans: Iterable[Dict[str, Any]], name: str,
             key: str) -> float:
    return sum(s.get("a", {}).get(key, 0) for s in spans if s["n"] == name)


def layer_self(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Self seconds per layer (the span-name prefix)."""
    out: Dict[str, float] = {}
    for span in spans:
        layer = span["n"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + span["self"]
    return out


def process_windows(spans: Iterable[Dict[str, Any]]
                    ) -> Dict[int, Tuple[float, float]]:
    """``pid -> (first span start, last span end)``."""
    out: Dict[int, Tuple[float, float]] = {}
    for span in spans:
        first, last = out.get(span["pid"], (span["s"], span["e"]))
        out[span["pid"]] = (min(first, span["s"]), max(last, span["e"]))
    return out

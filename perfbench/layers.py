"""Per-layer metrics derived the same way on every workload."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import benchstats
import spanlog


def common_layers(spans: List[Dict[str, Any]], per: float
                  ) -> Dict[str, float]:
    """Layer metrics every workload derives the same way from spans;
    seconds and counts are divided by ``per`` (repetitions)."""
    gen_s = spanlog.total(spans, "pipeline.generate_trace")
    sim_s = spanlog.total(spans, "core.simulate", "core.simulate_batch")
    cycles = spanlog.attr_sum(spans, "core.simulate", "cycles") + \
        spanlog.attr_sum(spans, "core.simulate_batch", "cycles")
    return {
        "pipeline.trace_gen_s": gen_s / per,
        "pipeline.traces_generated":
            spanlog.count(spans, "pipeline.generate_trace") / per,
        "pipeline.entries_per_s":
            spanlog.attr_sum(spans, "pipeline.generate_trace", "entries")
            / gen_s if gen_s else 0.0,
        "core.simulate_s": sim_s / per,
        "core.sim_cyc_per_s": cycles / sim_s if sim_s else 0.0,
        "core.lower_s": spanlog.total(spans, "core.lower") / per,
        "campaign.cache_probe_s":
            spanlog.total(spans, "campaign.cache_probe") / per,
        "campaign.cache_put_s":
            spanlog.total(spans, "campaign.cache_put") / per,
        "campaign.fingerprint_s":
            spanlog.total(spans, "campaign.fingerprint") / per,
        "predict.extract_s": spanlog.total(
            spans, "predict.extract", "predict.materialise") / per,
        "verify.check_s": spanlog.total(spans, "verify.check") / per,
        "verify.engine_diff_s": spanlog.total(
            spans, "core.simulate", "core.simulate_batch",
            "pipeline.generate_trace_compiled",
            parent="verify.check") / per,
        "isa.interpret_s": spanlog.total(spans, "isa.interpret") / per,
    }


def recon(wall_s: float, spans: List[Dict[str, Any]], per: float
          ) -> Dict[str, float]:
    """Reconcile per-repetition layer self times with untraced wall."""
    selfs = {layer: s / per
             for layer, s in spanlog.layer_self(spans).items()}
    split = benchstats.reconcile(wall_s, selfs)
    return {f"recon.{k}": v for k, v in split.items()}


# -- serve: the daemon's own request spans ----------------------------------

#: layer of each worker phase span the serve daemon writes to its
#: ``--trace-dir`` (``repro.serve.workers._PHASE_SPANS`` and the
#: estimate and verify phases)
PHASE_LAYER = {"cache.probe": "campaign", "trace.gen": "pipeline",
               "engine.simulate": "core", "predict.estimate": "predict",
               "verify.fuzz": "verify"}


def load_trace_dir(trace_dir: Path) -> List[Dict[str, Any]]:
    """The spans a ``repro.serve start --trace-dir`` daemon wrote."""
    path = Path(trace_dir) / "spans.jsonl"
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


@dataclass
class ServeBreakdown:
    """Answered requests' daemon time, split by layer."""

    #: summed duration of the ``request`` spans; equals the sum of
    #: ``layer_s``
    request_s: float = 0.0
    layer_s: Dict[str, float] = field(default_factory=dict)
    #: per request with a worker attempt: the critical attempt minus
    #: its worker phases (pickling, pool queueing, result marshalling)
    handoff_s: List[float] = field(default_factory=list)


def _dur_s(span: Dict[str, Any]) -> float:
    return (span["end_us"] - span["start_us"]) / 1e6


def serve_breakdown(trace_spans: Sequence[Dict[str, Any]],
                    window_us: Tuple[float, float]) -> ServeBreakdown:
    """Split every answered ``request`` span that started inside
    ``window_us`` into layers.

    The worker phases under the request's critical worker attempt (its
    longest one: a sweep's attempts run side by side) count for their
    layers; the rest of the request span (parsing, the response LRU,
    admission, queue wait, hand-off to the pool and back, the
    response) is the serve layer's own time.  Nothing is derived from
    the client's latency, so the time no span covers stays out.
    """
    children: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for span in trace_spans:
        if span.get("parent_id"):
            children.setdefault((span["trace_id"], span["parent_id"]),
                                []).append(span)
    out = ServeBreakdown()
    start, end = window_us
    for root in trace_spans:
        if root["name"] != "request" \
                or root.get("attrs", {}).get("http_status") != 200 \
                or not start <= root["start_us"] <= end:
            continue
        trace = root["trace_id"]
        attempts = [c for c in children.get((trace, root["span_id"]), [])
                    if c["name"] == "worker.attempt"]
        phases_s = 0.0
        if attempts:
            critical = max(attempts, key=_dur_s)
            for phase in children.get((trace, critical["span_id"]), []):
                layer = PHASE_LAYER.get(phase["name"], "serve")
                out.layer_s[layer] = out.layer_s.get(layer, 0.0) \
                    + _dur_s(phase)
                phases_s += _dur_s(phase)
            out.handoff_s.append(_dur_s(critical) - phases_s)
        out.layer_s["serve"] = out.layer_s.get("serve", 0.0) \
            + _dur_s(root) - phases_s
        out.request_s += _dur_s(root)
    return out

"""Span self times, and the checks that decide a wrong output."""

import json

import pytest

import inputs
import spanlog
from layers import serve_breakdown
from openloop import run_open_loop
from wl_serve import make_classifier


def test_self_time_subtracts_children(tmp_path):
    spans = [
        {"n": "verify.check", "i": 1, "p": 0, "s": 0.0, "e": 10.0},
        {"n": "isa.interpret", "i": 2, "p": 1, "s": 1.0, "e": 3.0},
        {"n": "core.simulate", "i": 3, "p": 1, "s": 4.0, "e": 8.0,
         "a": {"cycles": 100}},
        {"n": "core.lower", "i": 4, "p": 3, "s": 4.0, "e": 5.0},
    ]
    (tmp_path / "spans-7.json").write_text(
        json.dumps({"pid": 7, "spans": spans}))
    loaded = spanlog.load(tmp_path)
    selfs = {s["n"]: s["self"] for s in loaded}
    assert selfs == {"verify.check": 4.0, "isa.interpret": 2.0,
                     "core.simulate": 3.0, "core.lower": 1.0}
    assert spanlog.layer_self(loaded) == {"verify": 4.0, "isa": 2.0,
                                          "core": 4.0}
    # layer self times add up to the root span's wall time
    assert sum(spanlog.layer_self(loaded).values()) == 10.0
    assert spanlog.total(loaded, "core.simulate",
                         parent="verify.check") == 4.0
    assert spanlog.attr_sum(loaded, "core.simulate", "cycles") == 100
    assert spanlog.process_windows(loaded) == {7: (0.0, 10.0)}


def test_wrapped_function_records_nesting(tmp_path):
    log = spanlog.SpanLog(tmp_path)

    def inner():
        return 3

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = log.wrap("core.inner", inner)
    assert log.wrap("verify.outer", outer)() == 4
    by_name = {s["n"]: s for s in log.spans}
    assert by_name["core.inner"]["p"] == by_name["verify.outer"]["i"]
    log.dump()
    assert [s["parent"] for s in spanlog.load(tmp_path)
            if s["n"] == "core.inner"] == ["verify.outer"]


def _span(name, span_id, parent, start_ms, end_ms, trace="t1", **attrs):
    span = {"name": name, "trace_id": trace, "span_id": span_id,
            "start_us": start_ms * 1000, "end_us": end_ms * 1000}
    if parent:
        span["parent_id"] = parent
    if attrs:
        span["attrs"] = attrs
    return span


def test_serve_breakdown_splits_request_spans_by_layer():
    spans = [
        # a sweep: two attempts side by side, the longer one critical
        _span("request", "r", None, 0, 100, http_status=200),
        _span("admission", "a", "r", 0, 2),
        _span("queue.wait", "q", "r", 2, 10),
        _span("worker.attempt", "w1", "r", 10, 90),
        _span("worker.attempt", "w2", "r", 10, 60),
        _span("cache.probe", "p1", "w1", 12, 14),
        _span("trace.gen", "g1", "w1", 14, 40),
        _span("engine.simulate", "s1", "w1", 40, 85),
        _span("engine.simulate", "s2", "w2", 15, 55),
        # an LRU hit: no children at all
        _span("request", "r2", None, 50, 51, trace="t2", http_status=200),
        # refused, and one outside the window: both left out
        _span("request", "r3", None, 60, 61, trace="t3", http_status=429),
        _span("request", "r4", None, 500, 501, trace="t4",
              http_status=200),
    ]
    out = serve_breakdown(spans, (0, 400_000))
    assert out.request_s == pytest.approx(0.101)
    assert out.layer_s == pytest.approx({
        "campaign": 0.002, "pipeline": 0.026, "core": 0.045,
        "serve": 0.101 - 0.073})
    # the parts add up to the request spans: nothing is plugged in
    assert sum(out.layer_s.values()) == pytest.approx(out.request_s)
    assert out.handoff_s == pytest.approx([0.080 - 0.073])


def test_serve_breakdown_does_not_mix_traces():
    spans = [_span("request", "r", None, 0, 10, trace="t1",
                   http_status=200),
             _span("worker.attempt", "w", "r", 1, 9, trace="t2"),
             _span("engine.simulate", "s", "w", 2, 8, trace="t2")]
    out = serve_breakdown(spans, (0, 1e9))
    assert out.layer_s == {"serve": pytest.approx(0.010)}
    assert out.handoff_s == []


@pytest.fixture
def classify():
    body = {"suite": "ml", "bench": "pool0", "scale": 3,
            "core": "small", "mode": "redsoc"}
    key = inputs.named_key("ml", "pool0", 3, "small", "redsoc")
    return make_classifier({key: 500}), body


def test_matching_cycles_pass(classify):
    fn, body = classify
    out = fn("simulate", body, 200,
             {"result": {"cycles": 500, "wall_time_s": 0.1,
                         "cache_hit": False}, "served": "worker"})
    assert out["ok"] and out["worker_s"] == 0.1


def test_wrong_cycles_fail(classify):
    fn, body = classify
    out = fn("simulate", body, 200,
             {"result": {"cycles": 501, "wall_time_s": 0.1,
                         "cache_hit": False}, "served": "worker"})
    assert not out["ok"] and out["error"] == "wrong-cycles"


@pytest.mark.parametrize("status", [429, 503, 500, 504])
def test_refusals_fail(classify, status):
    fn, body = classify
    assert not fn("simulate", body, status, {"error": "x"})["ok"]


def test_lru_answers_carry_no_worker_time(classify):
    fn, body = classify
    out = fn("simulate", body, 200,
             {"result": {"cycles": 500, "wall_time_s": 0.1,
                         "cache_hit": False}, "served": "lru"})
    assert out["ok"] and out["worker_s"] is None


def test_an_answer_missing_its_fields_is_a_wrong_output(classify):
    fn, body = classify

    class Transport:
        def post(self, path, raw):
            return 200, {"served": "worker"}

        def close(self):
            pass

    [sample] = run_open_loop([(0.0, "simulate", body)], Transport, fn,
                             connections=1)
    assert not sample.ok and sample.error.startswith("wrong-output")

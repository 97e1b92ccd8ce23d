"""The open-loop generator times requests from when they were due."""

import threading
import time

import pytest

from openloop import even_schedule, run_open_loop


class FakeTransport:
    """Answers instantly except for stalls keyed by request body."""

    def __init__(self, stalls, log, fail=()):
        self.stalls, self.log, self.fail = stalls, log, fail

    def post(self, path, body):
        self.log.append((path, body, threading.current_thread().name))
        if body in self.fail:
            raise ConnectionResetError("peer went away")
        time.sleep(self.stalls.get(body, 0.0))
        return 200, {"body": body.decode()}

    def close(self):
        pass


def _classify(kind, body, status, payload):
    return {"ok": status == 200}


def _schedule(n, rate=20.0):
    return even_schedule(rate, [("simulate", {"i": i}) for i in range(n)])


def test_stall_is_charged_to_the_requests_behind_it():
    stalls = {b'{"i": 0}': 0.3}
    log = []
    samples = run_open_loop(_schedule(3),
                            lambda: FakeTransport(stalls, log),
                            _classify, connections=1)
    first, second, third = samples
    assert first.latency_s >= 0.3
    # due at 50 ms, sent only after the stalled request returned
    assert second.sent >= first.done
    assert second.lag_s >= 0.2
    assert second.latency_s >= 0.2
    assert third.latency_s >= 0.15
    # timed from due time, not send time
    assert second.latency_s > (second.done - second.sent) + 0.2


def test_schedule_is_kept_when_not_stalled():
    samples = run_open_loop(_schedule(6), lambda: FakeTransport({}, []),
                            _classify, connections=2)
    assert len(samples) == 6
    assert all(s.lag_s < 0.04 for s in samples)
    dues = [s.due - samples[0].due for s in samples]
    assert dues == sorted(dues)
    assert abs(dues[-1] - 5 / 20.0) < 1e-9


def test_at_most_the_given_connections():
    log = []
    made = []

    def factory():
        made.append(1)
        return FakeTransport({}, log)

    run_open_loop(_schedule(10, rate=200.0), factory, _classify,
                  connections=2)
    assert len(made) == 2
    assert len({name for _, _, name in log}) <= 2


def test_transport_errors_are_failures_and_the_loop_goes_on():
    fail = {b'{"i": 1}'}
    samples = run_open_loop(_schedule(3),
                            lambda: FakeTransport({}, [], fail=fail),
                            _classify, connections=1)
    assert [s.ok for s in samples] == [True, False, True]
    assert samples[1].error.startswith("transport")


def test_an_unreadable_answer_is_a_wrong_output():
    def classify(kind, body, status, payload):
        if payload["body"] == '{"i": 1}':
            raise KeyError("result")
        return {"ok": True}

    samples = run_open_loop(_schedule(3), lambda: FakeTransport({}, []),
                            classify, connections=1)
    assert [s.ok for s in samples] == [True, False, True]
    assert samples[1].error.startswith("wrong-output")


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_a_dead_sender_leaves_failures_not_gaps():
    def factory():
        raise RuntimeError("cannot connect")

    samples = run_open_loop(_schedule(4), factory, _classify,
                            connections=2)
    assert len(samples) == 4
    assert not any(s.ok for s in samples)
    assert all(s.error == "never-sent" for s in samples)

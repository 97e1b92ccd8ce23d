"""The benchmark's own arithmetic: tail rule, failures, max rate,
reconciliation."""

import pytest

import benchstats
from benchstats import Sample, StepResult


class TestTail:
    def test_ten_samples_beyond(self):
        t = benchstats.tail([float(v) for v in range(1, 101)])
        assert (t.value, t.percentile, t.samples) == (90.0, 90.0, 100)
        assert t.label == "p90"

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(200, 0, -1)]
        t = benchstats.tail(values)
        assert t.value == 190.0 and t.percentile == 95.0

    def test_eleven_samples_leave_exactly_ten_beyond(self):
        t = benchstats.tail([float(v) for v in range(11)])
        assert t.value == 0.0
        assert sum(1 for v in range(11) if v > t.value) == 10

    def test_too_few_samples_fall_back_to_max(self):
        t = benchstats.tail([3.0, 1.0, 2.0])
        assert (t.value, t.percentile, t.samples) == (3.0, 100.0, 3)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            benchstats.tail([])


def _sample(due, sent=None, done=None, ok=True, kind="simulate", **kw):
    sent = due if sent is None else sent
    done = sent + 0.01 if done is None else done
    return Sample(kind, due, sent, done, status=200 if ok else 503,
                  ok=ok, **kw)


class TestFailures:
    def test_counts_every_not_ok_sample(self):
        samples = [_sample(0.0), _sample(0.1, ok=False),
                   _sample(0.2, ok=False, error="wrong-cycles")]
        assert benchstats.failures(samples) == 2
        assert benchstats.failed_frac(3, 2) == pytest.approx(2 / 3)

    def test_failed_frac_needs_attempts(self):
        with pytest.raises(ValueError):
            benchstats.failed_frac(0, 0)

    def test_failure_misses_the_limit(self):
        samples = [_sample(i / 10) for i in range(10)]
        samples.append(_sample(1.0, ok=False))
        step = StepResult(10.0, samples)
        assert step.failed == 1
        assert not step.meets(limit_ms=1e9)

    def test_failures_rank_as_the_slowest(self):
        samples = [_sample(i / 10) for i in range(10)]
        samples += [_sample(1.0 + i / 10, ok=False) for i in range(11)]
        assert StepResult(10.0, samples).tail_ms() == float("inf")


def _steady(rate, n=30, service=0.01):
    return [_sample(i / rate, done=i / rate + service) for i in range(n)]


def _backlogged(rate, n=30, capacity=None):
    capacity = capacity or rate / 2
    out = []
    for i in range(n):
        due = i / rate
        sent = max(due, i / capacity)
        out.append(_sample(due, sent=sent, done=sent + 1 / capacity))
    return out


class TestMaxRps:
    def test_highest_passing_rate(self):
        steps = [StepResult(5, _steady(5)), StepResult(10, _steady(10)),
                 StepResult(40, _backlogged(40))]
        assert benchstats.max_rps(steps, limit_ms=100) == 10

    def test_growing_lag_fails_even_within_the_limit(self):
        step = StepResult(40, _backlogged(40))
        assert benchstats.lag_grows(step.samples, step.rate)
        assert step.tail_ms() < 1e6
        assert not step.meets(limit_ms=1e6)

    def test_steady_lag_does_not_grow(self):
        late = [_sample(i / 10, sent=i / 10 + 0.02) for i in range(30)]
        assert not benchstats.lag_grows(late, 10)

    def test_tail_over_limit_fails(self):
        steps = [StepResult(5, _steady(5, service=0.5))]
        assert benchstats.max_rps(steps, limit_ms=100) == 0.0

    def test_a_failed_request_fails_the_rate(self):
        samples = _steady(10)
        samples[3].ok = False
        assert benchstats.max_rps([StepResult(10, samples)],
                                  limit_ms=1e9) == 0.0

    def test_only_the_named_kind_sets_the_tail(self):
        samples = _steady(5) + [_sample(9.0, done=10.0, kind="sweep")]
        assert benchstats.max_rps([StepResult(5, samples)],
                                  limit_ms=100) == 5


class TestDrainRate:
    def test_backlog_drains_at_capacity(self):
        # 40 requests due within 0.2 s, answered 10 per second
        samples = [_sample(i / 200, sent=i / 10, done=(i + 1) / 10)
                   for i in range(40)]
        assert benchstats.drain_rps(samples) == pytest.approx(10.0)

    def test_only_correct_answers_count(self):
        samples = [_sample(0.0, done=(i + 1) / 10, ok=i % 2 == 0)
                   for i in range(40)]
        assert benchstats.drain_rps(samples) == pytest.approx(5.0)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            benchstats.drain_rps([])


class TestReconcile:
    def test_remainder_and_share(self):
        split = benchstats.reconcile(10.0, {"core": 6.0, "pipeline": 2.5})
        assert split["attributed_s"] == pytest.approx(8.5)
        assert split["unattributed_s"] == pytest.approx(1.5)
        assert split["unattributed_pct"] == pytest.approx(15.0)

    def test_over_attribution_is_negative(self):
        split = benchstats.reconcile(2.0, {"core": 2.5})
        assert split["unattributed_s"] == pytest.approx(-0.5)

    def test_overhead_sign_follows_better(self):
        assert benchstats.overhead_pct(100.0, 110.0, "lower") == \
            pytest.approx(10.0)
        assert benchstats.overhead_pct(100.0, 90.0, "higher") == \
            pytest.approx(10.0)

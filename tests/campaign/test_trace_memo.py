"""The per-process trace memo: a bounded LRU over dynamic entries."""

from collections import OrderedDict

import pytest

import repro.campaign.jobs as jobs_mod
from repro.campaign.jobs import CampaignJob, job_trace
from repro.campaign.runner import _execute_jobs
from repro.core.lower import lower_trace


@pytest.fixture
def memo(monkeypatch):
    """A fresh, empty memo and a log of every trace generated into it."""
    generated = []
    real = jobs_mod.generate_trace

    def counting(program, **kwargs):
        trace = real(program, **kwargs)
        generated.append(trace)
        return trace

    monkeypatch.setattr(jobs_mod, "_TRACE_MEMO", OrderedDict())
    monkeypatch.setattr(jobs_mod, "generate_trace", counting)
    return generated


def _job(scale, bench="pool0", suite="ml", core="small", mode="baseline"):
    return CampaignJob(suite, bench, core, mode, scale=scale)


class TestEviction:
    def test_least_recently_used_goes_first(self, memo, monkeypatch):
        a, b = job_trace(_job(2)), job_trace(_job(3))
        monkeypatch.setattr(jobs_mod, "TRACE_MEMO_ENTRIES",
                            len(a) + len(b))
        assert job_trace(_job(2)) is a        # a is now the most recent
        c = job_trace(_job(1))                # smaller than b: a stays
        assert list(jobs_mod._TRACE_MEMO) == [("ml", "pool0", 2),
                                               ("ml", "pool0", 1)]
        assert job_trace(_job(2)) is a
        assert job_trace(_job(1)) is c
        assert len(memo) == 3

    def test_evicted_trace_drops_lowered_columns(self, memo, monkeypatch):
        a = job_trace(_job(1))
        lower_trace(a)
        assert "_lowered" in vars(a)
        monkeypatch.setattr(jobs_mod, "TRACE_MEMO_ENTRIES", len(a))
        job_trace(_job(2))
        assert ("ml", "pool0", 1) not in jobs_mod._TRACE_MEMO
        assert "_lowered" not in vars(a)

    def test_single_trace_over_budget_is_kept(self, memo, monkeypatch):
        monkeypatch.setattr(jobs_mod, "TRACE_MEMO_ENTRIES", 1)
        a = job_trace(_job(2))
        assert len(a) > 1
        assert job_trace(_job(2)) is a
        b = job_trace(_job(3))
        assert list(jobs_mod._TRACE_MEMO.values()) == [b]
        assert len(memo) == 2

    def test_chunk_on_one_trace_generates_it_once(self, memo, tmp_path):
        chunk = [_job(3, core=core, mode=mode)
                 for core in ("small", "medium")
                 for mode in ("baseline", "redsoc", "mos")]
        records = _execute_jobs(chunk, str(tmp_path), False)
        assert len(records) == 6
        assert not any(r.cache_hit for r in records)
        assert len(memo) == 1

"""Seeded inputs: deterministic, unique within a step, all checkable."""

import json
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parents[2]


def _trace_ids(requests):
    ids = []
    for kind, body in requests:
        ids.append(body["name"] if "asm" in body
                   else (body["suite"], body["bench"], body["scale"]))
    return ids


def test_same_seed_same_inputs():
    assert inputs.cold_requests(3, 0, 50) == inputs.cold_requests(3, 0, 50)
    assert inputs.campaign_jobs(3) == inputs.campaign_jobs(3)
    assert inputs.cold_requests(3, 0, 50) != inputs.cold_requests(4, 0, 50)


def test_cold_requests_share_no_trace():
    requests = inputs.cold_requests(9, 1, inputs.COLD_MAX_REQUESTS)
    ids = _trace_ids(requests)
    assert len(ids) == len(set(ids)) == inputs.COLD_MAX_REQUESTS


def test_every_drawn_job_has_a_reference():
    reference = inputs.load_reference()
    for seed in range(5):
        for job in inputs.campaign_jobs(seed):
            assert inputs.job_key(job) in reference
        for kind, body in inputs.cold_requests(seed, 0, 60):
            assert inputs.expected_cycles(kind, body, reference)


def test_universe_matches_the_table():
    keys = {inputs.job_key(j) for j in inputs.reference_universe()}
    assert keys == set(inputs.load_reference())


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names) and 2 <= len(names) <= 8
    assert len(set(metrics)) == len(metrics)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fuzz_sessions_are_distinct_and_of_equal_cost():
    entries = inputs.load_fuzz_entries()
    by_seed = {inputs.fuzz_pool_seed(i): i for i in entries}
    totals = []
    for seed in range(20):
        sessions = [inputs.fuzz_session_seed(seed, i, entries)
                    for i in range(2 * inputs.FUZZ_STRATA)]
        assert len(set(sessions)) == len(sessions)
        assert sessions == [inputs.fuzz_session_seed(seed, i, entries)
                            for i in range(2 * inputs.FUZZ_STRATA)]
        totals.append(sum(entries[by_seed[s]] for s in sessions[:10]))
    assert max(totals) / min(totals) < 1.05
    assert len({inputs.fuzz_session_seed(seed, 0, entries)
                for seed in range(20)}) > 1

"""Seeded inputs of every workload, and the reference cycle table.

Each workload draws its inputs from a fixed *universe* of jobs whose
cycle counts the ``reference`` engine computed once
(``make_reference.py`` writes ``reference_cycles.json``).  A seed picks
one variant out of each stratum of that universe, so two seeds give
different inputs of near-identical cost: the spread between seeds stays
small while no two requests of one run share a trace.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_cycles.json"

MODES = ("baseline", "redsoc", "mos")

# -- campaign-cold ---------------------------------------------------------

#: one benchmark per suite at about half its evaluation scale, so one
#: cold campaign of the 18-job matrix takes a few seconds on 2 workers
CAMPAIGN_BENCHES: Tuple[Tuple[str, str, int], ...] = (
    ("spec", "soplex", 48), ("mibench", "bitcnt", 52), ("ml", "pool0", 20))
CAMPAIGN_CORES = ("small", "medium")
#: the seed adds 0..CAMPAIGN_VARIANTS-1 to every base scale
CAMPAIGN_VARIANTS = 4

# -- serve ------------------------------------------------------------------

#: (suite, bench, base scale): twelve benchmarks whose scales
#: base..base+13 average ~1.5-2.2k dynamic instructions, so a cold
#: request costs ~100-200 ms (strsearch, gsm and corners step too
#: coarsely at this size and are left out)
SERVE_BENCHES: Tuple[Tuple[str, str, int], ...] = (
    ("spec", "xalanc", 1), ("spec", "bzip2", 1), ("spec", "omnetpp", 1),
    ("spec", "gromacs", 2), ("spec", "soplex", 2),
    ("mibench", "crc", 150), ("mibench", "bitcnt", 12),
    ("ml", "act", 24), ("ml", "pool0", 3), ("ml", "conv", 1),
    ("ml", "pool1", 2), ("ml", "softmax", 4),
)
#: scale strata per benchmark, and variants per stratum: the scales of
#: stratum k are base + k*SERVE_VARIANTS + {0 .. SERVE_VARIANTS-1}
SERVE_STRATA = 7
SERVE_VARIANTS = 2
SERVE_CORE = "small"

#: inline programs: a dependence chain of narrow adds and logic ops
#: whose operand widths depend on ``imm``, so baseline, ReDSOC and MOS
#: cycle counts all differ and ``imm`` moves them (~1.6k instructions)
INLINE_ASM = """
    mov   r1, #{imm}
    mov   r2, #0
    mov   r3, #200
top:
    and   r4, r1, #0xFF
    add   r5, r4, r2
    and   r5, r5, #0xFFF
    eor   r6, r5, r4
    add   r2, r6, r4
    add   r1, r1, #{imm}
    subs  r3, r3, #1
    bne   top
    halt
"""
INLINE_STRATA = 64
INLINE_VARIANTS = 4


def inline_imm(stratum: int, variant: int) -> int:
    """Immediate of one inline program (distinct for every pair)."""
    index = stratum * INLINE_VARIANTS + variant
    return (index * 40503 + 7) % 65536


def inline_asm(imm: int) -> str:
    return INLINE_ASM.format(imm=imm)


def inline_name(imm: int) -> str:
    return f"pb-inline-{imm}"


def serve_scale(base: int, stratum: int, variant: int) -> int:
    return base + stratum * SERVE_VARIANTS + variant


# -- reference table ----------------------------------------------------------

def named_key(suite: str, bench: str, scale: int, core: str,
              mode: str) -> str:
    return f"{suite}/{bench}/{scale}/{core}/{mode}"


def inline_key(imm: int, core: str, mode: str) -> str:
    return f"inline/{imm}/{core}/{mode}"


def reference_universe() -> List[Dict[str, Any]]:
    """Every job any workload can draw, as ``make_reference`` runs it."""
    jobs: List[Dict[str, Any]] = []
    for suite, bench, base in CAMPAIGN_BENCHES:
        for variant in range(CAMPAIGN_VARIANTS):
            for core in CAMPAIGN_CORES:
                for mode in MODES:
                    jobs.append({"suite": suite, "bench": bench,
                                 "scale": base + variant, "core": core,
                                 "mode": mode})
    for suite, bench, base in SERVE_BENCHES:
        for stratum in range(SERVE_STRATA):
            for variant in range(SERVE_VARIANTS):
                for mode in MODES:
                    jobs.append({"suite": suite, "bench": bench,
                                 "scale": serve_scale(base, stratum,
                                                      variant),
                                 "core": SERVE_CORE, "mode": mode})
    for stratum in range(INLINE_STRATA):
        for variant in range(INLINE_VARIANTS):
            for mode in MODES:
                jobs.append({"imm": inline_imm(stratum, variant),
                             "core": SERVE_CORE, "mode": mode})
    return jobs


def job_key(job: Dict[str, Any]) -> str:
    if "imm" in job:
        return inline_key(job["imm"], job["core"], job["mode"])
    return named_key(job["suite"], job["bench"], job["scale"],
                     job["core"], job["mode"])


def load_reference() -> Dict[str, int]:
    """``job key -> reference-engine cycles``."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)["cycles"]


# -- per-seed selections ------------------------------------------------------

def campaign_jobs(seed: int) -> List[Dict[str, Any]]:
    """The campaign-cold matrix: 3 suites x 2 cores x 3 modes.

    The seed picks each benchmark's scale variant; job order stays the
    evaluation order ``run_campaign`` users pass (suite, core, mode).
    """
    rng = random.Random(f"campaign/{seed}")
    jobs = []
    for suite, bench, base in CAMPAIGN_BENCHES:
        scale = base + rng.randrange(CAMPAIGN_VARIANTS)
        for core in CAMPAIGN_CORES:
            for mode in MODES:
                jobs.append({"suite": suite, "bench": bench,
                             "scale": scale, "core": core, "mode": mode})
    return jobs


#: one serve round: the request shares of the serve load generator's
#: default traffic mix (``repro.serve.loadgen.default_mix``: named
#: simulates 50%, inline simulates 27%, estimates 15%, sweeps 8%) in
#: whole requests, 13 + 7 + 4 + 2 of 26
NAMED_KINDS: Sequence[str] = (("simulate",) * 13 + ("estimate",) * 4
                              + ("sweep",) * 2)
INLINE_PER_ROUND = 7
ROUND_SIZE = len(NAMED_KINDS) + INLINE_PER_ROUND
#: rounds per step: every (benchmark, scale) is drawn at most once
COLD_ROUNDS = (len(SERVE_BENCHES) * SERVE_STRATA * SERVE_VARIANTS
               // len(NAMED_KINDS))
COLD_MAX_REQUESTS = COLD_ROUNDS * ROUND_SIZE


def cold_requests(seed: int, step: int,
                  count: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The first ``count`` unique cold requests of one serve-cold step.

    Requests come in rounds of ``ROUND_SIZE`` in the default traffic
    mix.  The named slots of all rounds run through the benchmarks in
    turn, each benchmark's stratum rising by one per pass (after
    ``SERVE_STRATA`` passes the strata come round again with their
    other variant), and the kind of a slot follows ``NAMED_KINDS``; so
    every seed sends the same mix of kinds, benchmarks and scale
    strata.  The seed picks which variant of each stratum comes first,
    the modes and the order within each round.
    No two requests of a step share a (benchmark, scale) or an inline
    program, so none can be answered by the response LRU, the disk
    cache or a worker's trace memo.
    """
    if count > COLD_MAX_REQUESTS:
        raise ValueError(f"a serve-cold step holds at most "
                         f"{COLD_MAX_REQUESTS} unique requests")
    rng = random.Random(f"serve-cold/{seed}/{step}")
    inline = list(range(INLINE_STRATA))
    rng.shuffle(inline)
    first = [rng.randrange(SERVE_VARIANTS)
             for _ in range(len(SERVE_BENCHES) * SERVE_STRATA)]
    requests: List[Tuple[str, Dict[str, Any]]] = []
    slot = 0
    for _ in range(COLD_ROUNDS):
        batch: List[Tuple[str, Dict[str, Any]]] = []
        for kind in NAMED_KINDS:
            b, lap = slot % len(SERVE_BENCHES), slot // len(SERVE_BENCHES)
            suite, bench, base = SERVE_BENCHES[b]
            stratum = lap % SERVE_STRATA
            variant = (first[b * SERVE_STRATA + stratum]
                       + lap // SERVE_STRATA) % SERVE_VARIANTS
            slot += 1
            body: Dict[str, Any] = {
                "suite": suite, "bench": bench,
                "scale": serve_scale(base, stratum, variant)}
            if kind == "sweep":
                body.update(cores=[SERVE_CORE],
                            modes=["baseline", "redsoc"])
            else:
                body.update(core=SERVE_CORE,
                            mode=MODES[rng.randrange(len(MODES))])
            batch.append((kind, body))
        for _ in range(INLINE_PER_ROUND):
            imm = inline_imm(inline.pop(), rng.randrange(INLINE_VARIANTS))
            batch.append(("simulate", {
                "asm": inline_asm(imm), "name": inline_name(imm),
                "core": SERVE_CORE,
                "mode": MODES[rng.randrange(len(MODES))]}))
        rng.shuffle(batch)
        requests.extend(batch)
    return requests[:count]


def expected_cycles(kind: str, body: Dict[str, Any],
                    reference: Dict[str, int]) -> List[int]:
    """Reference cycles of every job a request runs, in response order."""
    if "asm" in body:
        imm = int(body["name"].rsplit("-", 1)[1])
        return [reference[inline_key(imm, body["core"], body["mode"])]]
    if kind == "sweep":
        return [reference[named_key(body["suite"], body["bench"],
                                    body["scale"], core, mode)]
                for core in body["cores"] for mode in body["modes"]]
    return [reference[named_key(body["suite"], body["bench"],
                                body["scale"], body["core"],
                                body["mode"])]]


# -- fuzz --------------------------------------------------------------------

#: programs per ``run_fuzz`` session (20 took ~3.5 s on a 2-CPU host)
FUZZ_SESSION_PROGRAMS = 12
#: the universe holds FUZZ_STRATA x FUZZ_VARIANTS sessions; sorted by
#: their trace entries (what a session's checks cost), each run of
#: FUZZ_VARIANTS consecutive sessions is one stratum
FUZZ_STRATA = 16
FUZZ_VARIANTS = 4


def fuzz_pool_seed(index: int) -> int:
    """``run_fuzz`` seed of session ``index`` of the universe."""
    return random.Random(f"fuzz-pool/{index}").randrange(2 ** 31)


def load_fuzz_entries() -> Dict[int, int]:
    """``universe index -> trace entries of the session's programs``."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        table = json.load(fh)["fuzz_session_entries"]
    return {int(index): entries for index, entries in table.items()}


def fuzz_session_seed(seed: int, session: int,
                      entries: Dict[int, int]) -> int:
    """Seed of the ``session``-th fuzz session of a run.

    Programs differ in size by an order of magnitude, so sessions drawn
    at random differ in cost by ~25% and the fuzz rate would follow the
    seed.  Instead the sessions of every run visit the cost strata in
    one fixed order (cheap and costly ones mixed), and the seed picks
    which session of each stratum comes first; past FUZZ_STRATA
    sessions the strata come round again with their next variant.
    """
    ranked = sorted(entries, key=lambda index: (entries[index], index))
    order = list(range(FUZZ_STRATA))
    random.Random("fuzz-strata").shuffle(order)
    stratum = order[session % FUZZ_STRATA]
    rng = random.Random(f"fuzz/{seed}/{stratum}")
    variant = (rng.randrange(FUZZ_VARIANTS)
               + session // FUZZ_STRATA) % FUZZ_VARIANTS
    return fuzz_pool_seed(ranked[stratum * FUZZ_VARIANTS + variant])

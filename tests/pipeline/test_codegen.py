"""Tiered trace generator: bit-identity with the interpreter."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline.trace as trace_mod
from repro.isa.interpreter import run_program
from repro.isa.registers import RegisterFile
from repro.isa.semantics import execute
from repro.isa.textasm import assemble_text
from repro.pipeline.codegen import MAX_BLOCK_LEN, block_ends
from repro.pipeline.trace import (
    HOT_THRESHOLD,
    Trace,
    TraceEntry,
    generate_trace,
    generate_trace_compiled,
)
from repro.verify.generator import GenConfig, ProgramGenerator, materialize
from repro.workloads.suites import SUITES

#: a threshold no block reaches: the whole run stays interpreted
NEVER = 1 << 30


def interpret(program, max_instructions=5_000_000):
    """The reference: every instruction through ``execute``, in order."""
    regs = RegisterFile()
    mem = program.build_memory()
    entries = []
    pc = program.entry
    while len(entries) < max_instructions:
        instr = program.instructions[pc]
        res = execute(instr, regs, mem, pc)
        entries.append(TraceEntry(instr, pc, res.next_pc, res.taken,
                                  res.op_width, res.mem_addr,
                                  res.mem_size, res.is_store))
        for reg, value in res.writes.items():
            regs.write(reg, value)
        if res.is_store:
            mem.write(res.mem_addr, res.store_value, res.mem_size)
        if res.halted:
            return Trace(program.name, entries, regs.snapshot(),
                         mem.snapshot())
        pc = res.next_pc
    raise RuntimeError(
        f"{program.name!r} exceeded {max_instructions} instructions")


def tiered(program, threshold, cap=5_000_000):
    """The production generator with its hot threshold set to *threshold*."""
    return trace_mod._generate(program, None, cap, threshold)


def entry_tuples(trace):
    return [(e.instr, e.pc, e.next_pc, bool(e.taken), e.op_width,
             e.mem_addr, e.mem_size, bool(e.is_store))
            for e in trace.entries]


def assert_identical(program, thresholds=(HOT_THRESHOLD,)):
    ref = interpret(program)
    traces = [tiered(program, t) for t in thresholds]
    traces.append(generate_trace_compiled(program))
    for trace in traces:
        assert entry_tuples(trace) == entry_tuples(ref)
        assert trace.arch_state() == ref.arch_state()
        assert trace.name == ref.name
    return ref


def live_entries():
    return sum(1 for obj in gc.get_objects() if type(obj) is TraceEntry)


#: entry block pcs 0-1, loop block pcs 2-5 (40 runs), halt block pc 6
LOOP = """
    mov r1, #0
    mov r3, #40
top:
    add r1, r1, #3
    eor r2, r1, r3
    subs r3, r3, #1
    bne top
    halt
"""
LOOP_RUNS, LOOP_LEN = 40, 4
LOOP_N = 2 + LOOP_RUNS * LOOP_LEN + 1


class TestWorkloadIdentity:
    @pytest.mark.parametrize("suite,bench", [
        (suite, bench)
        for suite, benches in SUITES.items() for bench in benches])
    def test_every_workload(self, suite, bench):
        assert_identical(SUITES[suite][bench](scale=3))


class TestFallback:
    def test_simd_heavy_program_uses_interpreter_fallback(self):
        # VADD/VDUP have no specialized template; the generated block
        # must interpret them in place with fully synced state
        program = assemble_text("""
            mov r1, #7
            vdup.i32 v1, r1
            vadd.i32 v2, v1, v1
            vmov v3, v2
            add r2, r1, #1
            halt
        """, name="simd-mix")
        assert_identical(program)

    def test_register_amount_shift_falls_back(self):
        program = assemble_text("""
            mov r1, #12345
            mov r2, #7
            lsl r3, r1, r2
            lsrs r4, r1, r2
            halt
        """, name="reg-shift")
        assert_identical(program)


class TestCapSemantics:
    def test_overrun_raises_like_the_interpreter(self):
        program = SUITES["ml"]["act"](scale=8)
        with pytest.raises(RuntimeError, match="exceeded"):
            generate_trace_compiled(program, max_instructions=10)
        with pytest.raises(RuntimeError, match="exceeded"):
            generate_trace(program, max_instructions=10)

    def test_tail_interpreting_near_the_cap_is_exact(self):
        program = SUITES["ml"]["act"](scale=8)
        n = len(interpret(program).entries)
        ref = interpret(program, max_instructions=n)
        for gen in (generate_trace, generate_trace_compiled):
            assert entry_tuples(gen(program, max_instructions=n)) \
                == entry_tuples(ref)

    @pytest.mark.parametrize("threshold", [1, 2, HOT_THRESHOLD])
    def test_overrun_inside_a_block_and_at_its_tier_switch(
            self, threshold):
        program = assemble_text(LOOP, name="loop")
        # the loop block's threshold-th run starts here and is the
        # first one it would run compiled
        switch = 2 + (threshold - 1) * LOOP_LEN
        caps = [switch, switch + 2, switch + 2 * LOOP_LEN + 1,
                LOOP_N - 1]
        for cap in caps:
            with pytest.raises(RuntimeError, match="exceeded"):
                tiered(program, threshold, cap)
        trace = tiered(program, threshold, LOOP_N)
        assert entry_tuples(trace) == entry_tuples(interpret(program))


class TestCompileCaching:
    def test_blocks_end_at_branches(self):
        program = SUITES["mibench"]["crc"](scale=3)
        instrs = program.instructions
        ends = block_ends(program)
        for start, end in ends.items():
            assert 0 < end - start <= MAX_BLOCK_LEN
            for pc in range(start, end - 1):
                assert not instrs[pc].is_branch()
        # every pc belongs to exactly one block
        covered = sorted(pc for start, end in ends.items()
                         for pc in range(start, end))
        assert covered == list(range(len(instrs)))

    def test_long_straight_line_runs_are_split(self):
        program = assemble_text(
            "\n".join(["add r1, r1, #1"] * (MAX_BLOCK_LEN + 10)
                      + ["halt"]), name="long")
        ends = block_ends(program)
        assert ends[0] == MAX_BLOCK_LEN
        assert ends[MAX_BLOCK_LEN] == MAX_BLOCK_LEN + 11
        assert_identical(program, thresholds=(1, 2, HOT_THRESHOLD))

    @pytest.mark.parametrize("threshold,compiled", [
        (1, [0, 2, 6]), (LOOP_RUNS, [2]), (LOOP_RUNS + 1, [])])
    def test_only_blocks_reaching_the_threshold_compile(
            self, monkeypatch, threshold, compiled):
        starts = []
        real = trace_mod.compile_block

        def recording(instrs, start, end, ns):
            starts.append(start)
            return real(instrs, start, end, ns)

        monkeypatch.setattr(trace_mod, "compile_block", recording)
        program = assemble_text(LOOP, name="loop")
        trace = tiered(program, threshold)
        assert sorted(starts) == compiled     # each at most once
        assert entry_tuples(trace) == entry_tuples(interpret(program))


class TestNamespaceFreed:
    @pytest.mark.parametrize("threshold", [1, HOT_THRESHOLD, NEVER])
    def test_dropped_trace_is_freed_by_reference_counting(
            self, threshold):
        # compiled blocks take the run's namespace as their globals; if
        # that namespace held them (or the entry list held it), a
        # dropped trace's entries would wait for the cyclic collector
        program = SUITES["ml"]["act"](scale=16)
        gc.collect()
        gc.disable()
        try:
            before = live_entries()
            trace = tiered(program, threshold)
            assert live_entries() == before + len(trace.entries)
            del trace
            assert live_entries() == before
        finally:
            gc.enable()


class TestGeneratedPrograms:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_fuzzed_program_identity(self, seed):
        spec = ProgramGenerator(seed, GenConfig()).spec(0)
        assert_identical(materialize(spec))

    @settings(deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           cut=st.floats(min_value=0.0, max_value=1.0))
    def test_every_threshold_matches_the_interpreter(self, seed, cut):
        program = materialize(ProgramGenerator(seed, GenConfig()).spec(0))
        ref = assert_identical(program,
                               thresholds=(1, 2, HOT_THRESHOLD))
        golden = run_program(program)
        assert golden.arch_state() == ref.arch_state()
        assert golden.instructions == len(ref.entries)
        # a cap anywhere short of the run overruns in every tier
        cap = int(cut * (len(ref.entries) - 1))
        for threshold in (1, 2, HOT_THRESHOLD):
            with pytest.raises(RuntimeError, match="exceeded"):
                tiered(program, threshold, cap)

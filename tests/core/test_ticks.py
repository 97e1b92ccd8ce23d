"""Unit and property tests for the tick time base."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ticks import DEFAULT_TICK_BASE, TickBase


class TestTickBase:
    def test_default_is_3_bits(self):
        assert DEFAULT_TICK_BASE.ticks_per_cycle == 8
        assert DEFAULT_TICK_BASE.precision_bits == 3

    def test_ps_per_tick(self):
        assert DEFAULT_TICK_BASE.ps_per_tick == 62.5

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            TickBase(ticks_per_cycle=6)

    def test_quantisation_is_ceil(self):
        base = DEFAULT_TICK_BASE
        assert base.ps_to_ticks(62.5) == 1
        assert base.ps_to_ticks(62.6) == 2
        assert base.ps_to_ticks(1.0) == 1

    def test_zero_delay_still_costs_a_tick(self):
        assert DEFAULT_TICK_BASE.ps_to_ticks(0.0) == 1

    def test_cycle_math(self):
        base = DEFAULT_TICK_BASE
        assert base.cycle_of(17) == 2
        assert base.tick_in_cycle(17) == 1
        assert base.cycle_start(3) == 24
        assert base.next_edge(17) == 24
        assert base.next_edge(16) == 16

    def test_ex_time_clamped_to_cycle(self):
        base = DEFAULT_TICK_BASE
        assert base.ex_time_ticks(10_000.0) == 8

    @pytest.mark.parametrize("bits,ticks", [(1, 2), (2, 4), (3, 8),
                                            (4, 16), (5, 32)])
    def test_precision_sweep_instantiation(self, bits, ticks):
        base = TickBase(ticks_per_cycle=ticks)
        assert base.precision_bits == bits


class TestTickEdgeCases:
    """Boundary behaviour the event-driven compiled loop leans on."""

    def test_next_edge_at_exact_edges_is_identity(self):
        # a value already on a clock edge must not round up a cycle:
        # the compiled loop's skip target would otherwise drift past
        # wakeups scheduled exactly on the edge
        base = DEFAULT_TICK_BASE
        for cycle in (0, 1, 2, 7, 100):
            edge = cycle * base.ticks_per_cycle
            assert base.next_edge(edge) == edge

    def test_next_edge_one_tick_before_and_after_edge(self):
        base = DEFAULT_TICK_BASE
        assert base.next_edge(15) == 16
        assert base.next_edge(17) == 24

    def test_next_edge_zero(self):
        assert DEFAULT_TICK_BASE.next_edge(0) == 0

    def test_cycle_of_tick_zero(self):
        base = DEFAULT_TICK_BASE
        assert base.cycle_of(0) == 0
        assert base.tick_in_cycle(0) == 0

    def test_cycle_of_at_cycle_boundaries(self):
        # the first tick of cycle N belongs to N, the last to N too
        base = DEFAULT_TICK_BASE
        assert base.cycle_of(8) == 1
        assert base.cycle_of(7) == 0
        assert base.cycle_of(15) == 1
        assert base.cycle_of(16) == 2

    def test_ex_time_ticks_at_bucket_boundaries(self):
        # raw + bypass landing exactly on a tick boundary must not
        # bump into the next bucket; one epsilon past it must
        base = DEFAULT_TICK_BASE          # 62.5 ps/tick, 20 ps bypass
        assert base.ex_time_ticks(105.0) == 2      # 125.0 = 2 ticks
        assert base.ex_time_ticks(105.1) == 3      # 125.1 -> ceil 3
        assert base.ex_time_ticks(104.9) == 2

    def test_ex_time_ticks_minimum_one_tick(self):
        assert DEFAULT_TICK_BASE.ex_time_ticks(0.0) == 1

    def test_ex_time_ticks_clamp_boundary(self):
        # exactly one full cycle is allowed; anything past it clamps
        base = DEFAULT_TICK_BASE          # cycle = 500 ps
        assert base.ex_time_ticks(480.0) == 8      # 500.0 exactly
        assert base.ex_time_ticks(480.1) == 8      # clamped

    @pytest.mark.parametrize("ticks", [2, 4, 16, 32])
    def test_next_edge_exact_edges_other_bases(self, ticks):
        base = TickBase(ticks_per_cycle=ticks)
        assert base.next_edge(ticks) == ticks
        assert base.next_edge(ticks + 1) == 2 * ticks
        assert base.next_edge(0) == 0


@given(st.floats(min_value=0.1, max_value=499.0))
def test_quantisation_never_underestimates(ps):
    """Conservative quantisation: tick time >= real time (non-speculative)."""
    base = DEFAULT_TICK_BASE
    ticks = base.ps_to_ticks(ps)
    assert ticks * base.ps_per_tick >= ps - 1e-6


@given(st.floats(min_value=0.1, max_value=499.0))
def test_quantisation_wastes_less_than_one_tick(ps):
    base = DEFAULT_TICK_BASE
    ticks = base.ps_to_ticks(ps)
    assert (ticks - 1) * base.ps_per_tick < ps + 1e-6


@given(st.integers(min_value=0, max_value=10_000))
def test_next_edge_properties(t):
    base = DEFAULT_TICK_BASE
    edge = base.next_edge(t)
    assert edge >= t
    assert edge % base.ticks_per_cycle == 0
    assert edge - t < base.ticks_per_cycle

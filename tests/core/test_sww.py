"""Sliding-window arithmetic (paper section 3.1.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sww import WIRE_BYTES, SlidingWindow


def eviction_frontier(window: SlidingWindow, wire_addr: int) -> int:
    """First output address whose window no longer holds ``wire_addr``.

    A consumer producing output ``o >= eviction_frontier(window, w)``
    must read ``w`` through the OoRW queue; equivalently ``w`` is live
    iff some consumer's output address reaches this frontier.
    """
    # Smallest o with window_start(o) > wire_addr:
    #   (o // half - 1) * half > wire_addr
    #   o // half > wire_addr / half + 1
    #   o >= (wire_addr // half + 2) * half
    return (wire_addr // window.half + 2) * window.half


class TestConstruction:
    def test_from_bytes(self):
        window = SlidingWindow.from_bytes(2 * 1024 * 1024)
        assert window.capacity == 131072  # the paper's 2 MB / 16 B
        assert window.size_bytes == 2 * 1024 * 1024

    def test_odd_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=7)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=2)


class TestWindowArithmetic:
    def test_initial_window(self):
        """Paper: the initial range of addresses is [0, n-1]."""
        window = SlidingWindow(capacity=8)
        for out in range(8):
            assert window.window_start(out) == 0

    def test_first_slide(self):
        """Paper: exceeding n-1 remaps to [0.5n, 1.5n - 1]."""
        window = SlidingWindow(capacity=8)
        assert window.window_start(8) == 4

    def test_slides_by_half(self):
        window = SlidingWindow(capacity=8)
        starts = [window.window_start(o) for o in range(0, 33, 4)]
        assert starts == [0, 0, 4, 8, 12, 16, 20, 24, 28]

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=8).window_start(-1)

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.sampled_from([4, 8, 64, 1024]),
        out=st.integers(0, 10_000),
    )
    def test_window_always_contains_frontier(self, capacity, out):
        window = SlidingWindow(capacity=capacity)
        assert window.window_start(out) <= out < window.window_start(out) + capacity

    @settings(max_examples=50, deadline=None)
    @given(capacity=st.sampled_from([4, 8, 64]), out=st.integers(0, 5_000))
    def test_start_monotone_in_frontier(self, capacity, out):
        window = SlidingWindow(capacity=capacity)
        assert window.window_start(out) <= window.window_start(out + 1)


class TestOorClassification:
    def test_in_window_reads(self):
        window = SlidingWindow(capacity=8)
        assert not window.is_oor(wire_addr=3, out_addr=5)

    def test_oor_after_slide(self):
        window = SlidingWindow(capacity=8)
        # At frontier 8 the window is [4, 12): wires 0-3 are OoR.
        assert window.is_oor(wire_addr=3, out_addr=8)
        assert not window.is_oor(wire_addr=4, out_addr=8)

    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.sampled_from([4, 8, 64]),
        wire=st.integers(0, 2_000),
    )
    def test_eviction_frontier_is_tight(self, capacity, wire):
        """eviction_frontier is the *first* frontier where the wire is OoR."""
        window = SlidingWindow(capacity=capacity)
        frontier = eviction_frontier(window, wire)
        assert window.is_oor(wire, frontier)
        assert not window.is_oor(wire, frontier - 1)

    def test_wire_valid_for_at_least_half_window(self):
        """Paper section 3.1.4: a wire stays on-chip for instructions
        proportional to half the SWW after it is written."""
        window = SlidingWindow(capacity=64)
        for wire in (0, 10, 63, 64, 100):
            assert eviction_frontier(window, wire) - wire >= window.half

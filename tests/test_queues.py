"""Tests for the token bucket that polices Pushback aggregates."""

import pytest
from hypothesis import given, strategies as st

from repro.pushback.ratelimit import TokenBucket


class TestTokenBucket:
    def test_initial_burst_admitted(self):
        tb = TokenBucket(rate_bps=8000, burst_bits=8000)
        assert tb.admit(0.0, 1000)  # exactly the burst

    def test_polices_beyond_burst(self):
        tb = TokenBucket(rate_bps=8000, burst_bits=8000)
        assert tb.admit(0.0, 1000)
        assert not tb.admit(0.0, 1)
        assert tb.policed == 1

    def test_tokens_refill_over_time(self):
        tb = TokenBucket(rate_bps=8000, burst_bits=8000)
        tb.admit(0.0, 1000)
        assert not tb.admit(0.0, 1000)
        assert tb.admit(1.0, 1000)  # one second refills 8000 bits

    def test_zero_rate_polices_after_burst(self):
        tb = TokenBucket(rate_bps=0.0, burst_bits=800)
        assert tb.admit(0.0, 100)
        assert not tb.admit(100.0, 100)

    def test_set_rate_mid_stream(self):
        tb = TokenBucket(rate_bps=800, burst_bits=800)
        tb.admit(0.0, 100)  # drains the bucket
        assert not tb.admit(0.0, 100)
        tb.set_rate(0.0, 16000)
        assert tb.rate_bps == 16000
        # 0.05 s at 16 kb/s refills the 800-bit burst cap.
        assert tb.admit(0.05, 100)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0)

    @given(
        rate=st.floats(min_value=1e3, max_value=1e8),
        sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1, max_size=200),
        gap=st.floats(min_value=0.0, max_value=0.01),
    )
    def test_property_long_run_conformance(self, rate, sizes, gap):
        """Admitted bytes never exceed burst + rate * elapsed."""
        burst = 4 * 1500 * 8.0
        tb = TokenBucket(rate, burst)
        now = 0.0
        admitted_bits = 0
        for size in sizes:
            if tb.admit(now, size):
                admitted_bits += size * 8
            now += gap
        assert admitted_bits <= burst + rate * now + 1e-6

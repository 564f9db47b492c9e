"""Cross-cutting property-based tests (hypothesis).

Invariants on the core data structures and models, beyond the
per-module unit tests:

* a channel's drop-tail FIFO never holds more than its limit, accounts
  for every packet as sent or dropped, and delivers in send order;
* attacker emission processes are monotone, self-consistent, and
  respect burst boundaries;
* the intermediate-AS list never grows beyond the distinct reporters
  and respects both maintenance rules under arbitrary report sequences;
* max–min allocations compose: splitting then re-splitting never
  exceeds the original budget.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.backprop.interas import ASAttackerSpec
from repro.backprop.progressive import IntermediateASList
from repro.pushback.ratelimit import maxmin_allocation
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet


@settings(max_examples=50, deadline=None)
@given(
    queue_limit=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=0, max_value=200),
)
def test_droptail_channel_bounded_and_fifo(queue_limit, n):
    sim = Simulator()
    a, b = Host(sim, 0), Host(sim, 1)
    channel = Link(sim, a, b, 1e6, 0.01, queue_limit).ab
    delivered = []
    b.on_deliver(lambda p: delivered.append(p.src))
    accepted = []
    for src in range(n):
        if channel.send(Packet(src, 1, 100)):
            accepted.append(src)
        assert len(channel.queue) <= queue_limit
    sim.run()
    assert channel.packets_sent + channel.packets_dropped == n
    assert delivered == accepted


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    t_on=st.floats(min_value=0.1, max_value=30.0),
    t_off=st.floats(min_value=0.0, max_value=30.0),
    phase=st.floats(min_value=0.0, max_value=30.0),
    queries=st.lists(st.floats(min_value=0.0, max_value=200.0), min_size=1, max_size=20),
)
def test_emission_times_consistent(rate, t_on, t_off, phase, queries):
    atk = ASAttackerSpec(1, 5, rate, t_on=t_on, t_off=t_off, phase=phase)
    for after in queries:
        e = atk.next_emission(after)
        assert e >= after - 1e-9
        # Idempotence: asking again at the emission returns the same time.
        assert atk.next_emission(e) == pytest.approx(e)
        # The emission falls inside a burst window (rel ~ cycle means
        # "at the next burst's start" up to float rounding).
        cycle = t_on + t_off
        rel = (e - phase) % cycle if cycle > 0 else 0.0
        assert rel <= t_on + 1e-6 or rel >= cycle - 1e-6


@settings(max_examples=50, deadline=None)
@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    queries=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=20),
)
def test_continuous_emissions_monotone(rate, queries):
    atk = ASAttackerSpec(1, 5, rate)
    queries = sorted(queries)
    emissions = [atk.next_emission(q) for q in queries]
    assert emissions == sorted(emissions)
    # Emissions land on the k/rate grid.
    for e in emissions:
        k = e * rate
        assert abs(k - round(k)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(
    reports=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.booleans()),
        max_size=60,
    ),
    rho=st.integers(min_value=1, max_value=5),
)
def test_intermediate_list_invariants(reports, rho):
    """Arbitrary interleavings of reports and epoch ends keep the list
    bounded and rule-consistent."""
    lst = IntermediateASList(rho=rho)
    distinct = set()
    streak: dict = {}
    for asn, end_epoch in reports:
        if end_epoch:
            lst.end_epoch()
        else:
            lst.on_report(asn, 0.1 * asn)
            distinct.add(asn)
        assert len(lst) <= len(distinct)
        # No entry may survive rho consecutive reporting epochs.
        for a, t in lst.resume_targets():
            assert t == pytest.approx(0.1 * a)
    # After two silent epoch ends, the list is empty (rule 1 twice).
    lst.end_epoch()
    lst.end_epoch()
    assert len(lst) == 0


@settings(max_examples=60, deadline=None)
@given(
    budget=st.floats(min_value=0.0, max_value=1e6),
    demands=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8),
    split=st.integers(min_value=2, max_value=4),
)
def test_maxmin_composition_conserves_budget(budget, demands, split):
    """Hop-by-hop re-splitting (Pushback's recursion) never inflates
    the total allocation beyond the original budget."""
    top = maxmin_allocation(budget, demands)
    total = 0.0
    for alloc, demand in zip(top, demands):
        # Each branch re-splits its share among `split` sub-demands.
        subs = [demand / split] * split
        total += sum(maxmin_allocation(alloc, subs))
    assert total <= budget + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    p=st.floats(min_value=0.05, max_value=0.95),
    m=st.floats(min_value=1.0, max_value=60.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_bernoulli_schedule_stable_under_requery(p, m, seed):
    from repro.honeypots.schedule import BernoulliSchedule

    sched = BernoulliSchedule(p, m, seed=seed)
    first = [sched.is_honeypot(0, e) for e in range(1, 40)]
    second = [sched.is_honeypot(0, e) for e in range(1, 40)]
    assert first == second


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_capture_time_equations_positive_when_finite(data):
    from repro.analysis.capture_time import basic_onoff, progressive_onoff

    m = data.draw(st.floats(min_value=1.0, max_value=60.0))
    p = data.draw(st.floats(min_value=0.05, max_value=1.0))
    h = data.draw(st.integers(min_value=1, max_value=30))
    r = data.draw(st.floats(min_value=0.5, max_value=100.0))
    tau = data.draw(st.floats(min_value=0.0, max_value=5.0))
    t_on = data.draw(st.floats(min_value=0.1, max_value=60.0))
    t_off = data.draw(st.floats(min_value=0.0, max_value=60.0))
    for fn in (basic_onoff, progressive_onoff):
        value = fn(m, p, h, r, tau, t_on, t_off)
        assert value > 0 or math.isinf(value)

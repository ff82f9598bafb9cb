"""Blind runs decided whole: drive_session against asking one slot at a time.

drive_session asks each blind strategy once per run for all of its slots
and books the run as blocks; the oracle writes the stream out as a list of
slots, asks every strategy through decide, one slot at a time, and books
each bundle alone on oracles.ReferenceSession.  Every comparison is ==.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    Abstainer,
    ArbitrageHunter,
    BeliefTrader,
    Herd,
    InvalidParameterError,
    MarketParams,
    RandomTrader,
    Strategy,
    StrategyContext,
    Stream,
    drive_session,
    open_market,
    sample_bundle,
)
from privmarket.noise import l2_norms

from oracles import ReferenceSession, assert_same_session


class Fractional(Strategy):
    """Blind and decide-only: a fractional trade of a random coordinate, or nothing."""

    kind = "fractional"
    reads_state = False

    def __init__(self, rng):
        self.rng = rng

    def decide(self, ctx):
        d = ctx.cost.d
        j, size = int(self.rng.integers(d)), float(self.rng.uniform(-1.0, 1.0))
        if size > 0.6:
            return None
        dq = np.zeros(d)
        dq[j] = size
        return dq


def _roster(kinds, d, seed):
    """Fresh strategy instances for kinds; the same arguments give identical twins."""
    rng = np.random.default_rng(seed)
    belief = rng.dirichlet(np.ones(d))
    out = []
    for i, kind in enumerate(kinds):
        child = np.random.default_rng([seed, i])
        out.append({
            "herd": lambda: Herd(int(child.integers(d))),
            "random": lambda: RandomTrader(child),
            "abstainer": Abstainer,
            "fractional": lambda: Fractional(child),
            "hunter": lambda: ArbitrageHunter(belief, threshold=0.02),
            "belief": lambda: BeliefTrader(belief),
        }[kind]())
    return out


def _eager(instances, order, length):
    """The stream as the list of each slot's strategy, written out."""
    if order == "sequential":
        per = max(1, math.ceil(length / len(instances)))
        return [strat for strat in instances for _ in range(per)][:length]
    return [instances[i % len(instances)] for i in range(length)]


def _one_slot_at_a_time(reference, slots):
    """Ask each slot's strategy through decide and book its bundle alone;
    return the number of slots asked."""
    for asked, strat in enumerate(slots):
        if reference.arrivals == reference.params.T:
            return asked
        dq = strat.decide(StrategyContext(t=reference.arrivals + 1, q_hat=reference.q_hat,
                                          p_hat=reference.p_hat, fee=reference.params.fee,
                                          cost=reference.cost))
        if dq is not None:
            reference.step(dq)
    return len(slots)


@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 2, 3, 8]),
    T=st.integers(2, 300),
    kinds=st.lists(st.sampled_from(["herd", "random", "abstainer", "fractional",
                                    "hunter", "belief"]), min_size=1, max_size=6),
    order=st.sampled_from(["round_robin", "sequential"]),
    length=st.integers(0, 3000),
    seed=st.integers(0, 2**16),
)
def test_drive_session_books_what_one_slot_at_a_time_books(d, T, kinds, order, length, seed):
    _assert_drive_session_matches_one_slot_at_a_time(d, T, kinds, order, length, seed)


BLIND = ["herd", "random", "abstainer", "fractional"]


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 2, 3, 8]),
    T=st.integers(2, 1500),
    kinds=st.lists(st.sampled_from(BLIND + ["hunter"]), min_size=1, max_size=4),
    length=st.integers(1, 2500),
    seed=st.integers(0, 2**16),
)
def test_sequential_streams_book_what_one_slot_at_a_time_books(d, T, kinds, length, seed):
    # turns of one instance after another: blind runs that are not periodic,
    # and blocks that cross from one turn into the next
    _assert_drive_session_matches_one_slot_at_a_time(d, T, kinds, "sequential", length, seed)


@pytest.mark.parametrize("order", [
    ("sequential", 4500),  # turns of 1500 cross the blocks of 1024; the market fills
    ("sequential", 1600),  # turns of 534; the stream runs dry first
    ("sequential", 1025),  # turns of 342: two turns end inside one block
    ("sequential", 3),  # turns of one slot
])
@pytest.mark.parametrize("kinds", [["herd", "random", "abstainer"],
                                   ["random", "fractional", "random"]])
def test_non_periodic_blind_runs_book_what_one_slot_at_a_time_books(kinds, order):
    _assert_drive_session_matches_one_slot_at_a_time(2, 2000, kinds, *order, order[1])


@pytest.mark.parametrize("d", [256, 1024])
def test_wide_blind_runs_book_what_one_slot_at_a_time_books(d):
    kinds = ["herd", "random", "abstainer", "random", "fractional", "hunter"]
    _assert_drive_session_matches_one_slot_at_a_time(d, 100, kinds, "round_robin", 180, d)


def _assert_drive_session_matches_one_slot_at_a_time(d, T, kinds, order, length, seed):
    """drive_session on Stream(kinds' instances, length, order) against
    _one_slot_at_a_time on the written-out list of twins."""
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    session = open_market(params, rng=np.random.default_rng(seed))
    reference = ReferenceSession(params, np.random.default_rng(seed))
    stream = Stream(_roster(kinds, d, seed), length, order)
    twins = _eager(_roster(kinds, d, seed), order, length)

    slot = drive_session(session, stream)
    assert slot == _one_slot_at_a_time(reference, twins)
    assert session.is_full == (reference.arrivals == T)
    assert session.is_full or slot == length  # a session left short took the whole stream
    assert_same_session(session, reference)
    outcome = seed % d
    assert session.close(outcome) == reference.close(outcome)


@pytest.mark.parametrize("instances, length, order, message", [
    ((), 10, "round_robin", "at least one instance"),
    ((Herd(),), -1, "round_robin", "length >= 0"),
    ((Herd(),), 2.0, "round_robin", "length >= 0"),
    ((Herd(),), 10, "shuffled", "order in"),
    ((Herd(),), True, "round_robin", "length >= 0"),  # not a length of 1
])
def test_a_stream_rejects_what_no_roster_expresses(instances, length, order, message):
    with pytest.raises(InvalidParameterError, match=message):
        Stream(instances, length, order)


def test_a_stream_rejects_an_instance_listed_twice():
    # its slots would not be one range, and a random trader listed twice
    # would draw differently when asked once per range than once per slot
    herd, rnd = Herd(), RandomTrader(np.random.default_rng(0))
    for instances in ([herd, herd], [rnd, herd, rnd]):
        for order in ("round_robin", "sequential"):
            with pytest.raises(InvalidParameterError, match="twice"):
                Stream(instances, 100, order)
    assert Stream([Herd(), Herd()], 100).length == 100  # equal, but two instances


def test_l2_norms_match_the_dot_product_on_every_row():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 8, 64, 1024):
        z = np.concatenate((sample_bundle(d, 37.5, rng, 300), rng.normal(size=(300, d)) * 1e3))
        assert l2_norms(z).tolist() == [math.sqrt(row.dot(row)) for row in z]


@pytest.mark.parametrize("d", [256, 1024])
def test_wide_blocks_book_what_one_bundle_at_a_time_books(d):
    T = 150  # blocks cross 64 and 128
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    rng = np.random.default_rng(d)
    bundles = rng.dirichlet(np.ones(d), size=T) * rng.choice([-1.0, 1.0], size=(T, d))
    bundles[::3] = np.eye(d)[rng.integers(d, size=len(bundles[::3]))]
    for sizes in ([T], [64, 64, 22], [63, 2, 62, 23], [1, 5, 16, 17, 33, 40, 38]):
        session = open_market(params, rng=np.random.default_rng(7))
        reference = ReferenceSession(params, np.random.default_rng(7))
        start = 0
        for k in sizes:
            session.step(bundles[start : start + k])
            for dq in bundles[start : start + k]:
                reference.step(dq)
            start += k
            assert_same_session(session, reference)
        assert session.close(d - 1) == reference.close(d - 1)

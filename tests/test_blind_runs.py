"""Blind runs decided whole: drive_session against asking one slot at a time.

drive_session asks each blind strategy once per run for all of its slots
and books the run as blocks; the oracle asks every strategy through decide,
one slot at a time, and books each bundle alone on oracles.ReferenceSession.
Every comparison is ==.
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
    MarketParams,
    RandomTrader,
    Strategy,
    StrategyContext,
    drive_session,
    open_market,
    sample_bundle,
)
from privmarket.market import l2_norms

from oracles import ReferenceSession

SESSION_FIELDS = ("q_hat", "p_hat", "c_hat", "q_true", "trade_payments", "fee_total",
                  "noise_buy_total", "noise_sell_total", "bundle_l2_total",
                  "max_price_gap", "max_share_gap", "arrivals")


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


def _one_slot_at_a_time(reference, stream):
    """Ask each slot's strategy through decide and book its bundle alone."""
    while reference.arrivals < reference.params.T:
        strat = next(stream, None)
        if strat is None:
            return True
        dq = strat.decide(StrategyContext(t=reference.arrivals + 1, q_hat=reference.q_hat,
                                          p_hat=reference.p_hat, fee=reference.params.fee,
                                          cost=reference.cost))
        if dq is not None:
            reference.step(dq)
    return False


@settings(max_examples=60, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 2, 3, 8]),
    T=st.integers(2, 300),
    kinds=st.lists(st.sampled_from(["herd", "random", "abstainer", "fractional",
                                    "hunter", "belief"]), min_size=1, max_size=6),
    length=st.integers(0, 500),
    seed=st.integers(0, 2**16),
)
def test_drive_session_books_what_one_slot_at_a_time_books(d, T, kinds, length, seed):
    _assert_drive_session_matches_one_slot_at_a_time(d, T, kinds, length, seed)


@pytest.mark.parametrize("d", [256, 1024])
def test_wide_blind_runs_book_what_one_slot_at_a_time_books(d):
    kinds = ["herd", "random", "abstainer", "random", "fractional", "hunter"]
    _assert_drive_session_matches_one_slot_at_a_time(d, 100, kinds, 30, d)


def _assert_drive_session_matches_one_slot_at_a_time(d, T, kinds, length, seed):
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    session = open_market(params, rng=np.random.default_rng(seed))
    reference = ReferenceSession(params, np.random.default_rng(seed))
    stream = iter(_roster(kinds, d, seed) * length)
    twin = iter(_roster(kinds, d, seed) * length)

    assert drive_session(session, stream) == _one_slot_at_a_time(reference, twin)
    for name in SESSION_FIELDS:
        assert np.array_equal(getattr(session, name), getattr(reference, name)), name
    assert [time for time, _ in session.noise.held] == list(reference.held)
    for (_, ours), theirs in zip(session.noise.held, reference.held.values()):
        assert np.array_equal(ours, theirs.value)
    assert len(list(stream)) == len(list(twin))
    outcome = seed % d
    assert session.close(outcome) == reference.close(outcome)


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
            for name in SESSION_FIELDS:
                assert np.array_equal(getattr(session, name), getattr(reference, name)), name
            assert [time for time, _ in session.noise.held] == list(reference.held)
            for (_, ours), theirs in zip(session.noise.held, reference.held.values()):
                assert np.array_equal(ours, theirs.value)
        assert session.close(d - 1) == reference.close(d - 1)

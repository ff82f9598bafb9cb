"""Bit-exact checks of the batched cost kernel against the per-state references.

The block evaluation in ScaledCost, the one-block step of MarketSession and
the one-block best-response search use the same arithmetic as the per-state
engine they replaced, so every comparison here is ==, not approx.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    ArbitrageHunter,
    Herd,
    InvalidParameterError,
    MarketParams,
    RandomTrader,
    ScaledCost,
    StrategyContext,
    maximize_profit,
    open_market,
    step_strategy,
)
from privmarket.cost import TALL_ROWS, row_sums, unit_trades
from privmarket.traders import _best_scale

from oracles import (
    ReferenceSession,
    assert_same_session,
    reference_cost,
    reference_maximize_profit,
    reference_prices,
)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 64])
def test_block_cost_and_prices_equal_per_row_references(d):
    # short blocks take row maxima along their rows, tall ones (TALL_ROWS * d
    # rows and more) down their columns; tall ones with 2 <= d < 8 (7 the
    # last) also exp and sum by columns
    rng = np.random.default_rng(d)
    tall = TALL_ROWS * d
    for lam in (1.0, 0.3, 0.0123, 1e-4):
        cost = ScaledCost(d=d, lam=lam)
        sides = ((1, tall), (tall, tall + 64))  # row counts below and from tall
        for scale, (low, high) in itertools.product((1.0, 50.0, 1e4), sides):
            n = int(rng.integers(low, high))
            block = rng.normal(0.0, scale, size=(n, d))
            block[0] = rng.uniform(0.99e4, 1.01e4, size=d) * rng.choice([-1.0, 1.0], size=d)
            if n > 2:  # maxima shared by 0.0 and -0.0, in both orders
                block[1:3] = -np.abs(block[1:3])
                block[1:3, [0, -1]] = [[0.0, -0.0], [-0.0, 0.0]]
            costs = cost.cost(block)
            prices = cost.prices(block)
            assert costs.shape == (len(block),) and prices.shape == block.shape
            # the session's unchecked entry (MarketSession.step) gives the same bits
            ours = cost._block_cost_and_prices(block)
            assert ours[0].tobytes() == costs.tobytes() and ours[1].tobytes() == prices.tobytes()
            for row, c, p in zip(block, costs, prices):
                assert c == reference_cost(cost, row)
                assert np.array_equal(p, reference_prices(cost, row))
                single = cost.cost(row)
                assert type(single) is float and single == c
                assert np.array_equal(cost.prices(row), p)


def test_non_finite_states_raise():
    # d = 3 in a short block, a lone state and two tall blocks; d = 2 and 7,
    # on the column path, in tall blocks; blocks through the session's
    # unchecked entry too, which skips only the shape check
    for d in (2, 3, 7):
        cost = ScaledCost(d=d, lam=0.5)
        bad_rows = [[0.0, v] + [1.0] * (d - 2) for v in (np.inf, np.nan)] + [[-np.inf] * d]
        tall = np.zeros((TALL_ROWS * d + 5, d))
        tall[[7, 30, -1]] = bad_rows
        for bad_row in bad_rows:
            block = np.zeros((4, d))
            block[2] = bad_row
            tall_block = np.zeros((TALL_ROWS * d, d))
            tall_block[-2] = bad_row
            blocks = (block, block[2], tall_block, tall) if d == 3 else (tall_block, tall)
            for q in blocks:
                with pytest.raises(InvalidParameterError, match="non-finite"):
                    cost.cost(q)
                with pytest.raises(InvalidParameterError, match="non-finite"):
                    cost.prices(q)
                if q.ndim == 2:
                    with pytest.raises(InvalidParameterError, match="non-finite"):
                        cost._block_cost_and_prices(q)


@pytest.mark.parametrize("d", range(1, 10))
def test_row_sums_equal_numpy_row_reduce(d):
    # below and from TALL_ROWS * d rows; d from 2 to 7 adds columns there,
    # every other block reduces row-wise.  The rows [1, 1e-16, ...] and
    # [1e-16, ..., 1] tell first-to-last from pairwise and other orders
    rng = np.random.default_rng(1000 + d)
    special = np.array([np.zeros(d), np.full(d, 0.7), np.full(d, 1e300), np.full(d, -1e-300),
                        np.r_[1.0, np.full(d - 1, 1e-16)], np.r_[np.full(d - 1, 1e-16), 1.0]])
    tall = TALL_ROWS * d
    for n in (1, tall - 1, tall, tall + 37):
        a = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 301, size=(n, d))
        a[: len(special)] = special[:n]
        sums = row_sums(a)
        assert sums.shape == (n,)
        assert np.array_equal(sums, np.add.reduce(a, axis=-1))
        assert np.array_equal(row_sums(np.abs(a)), np.add.reduce(np.abs(a), axis=-1))


def test_block_shapes_are_validated():
    cost = ScaledCost(d=2, lam=1.0)
    for bad in (np.zeros((3, 3)), np.zeros((0, 2)), np.zeros((2, 2, 2)), np.float64(1.0)):
        with pytest.raises(InvalidParameterError):
            cost.cost(bad)
        with pytest.raises(InvalidParameterError):
            cost.prices(bad)


def _context(cost, q_hat):
    return StrategyContext(t=1, q_hat=q_hat, p_hat=cost.prices(q_hat), fee=0.0, cost=cost)


def test_maximize_profit_equals_the_sequential_reference():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.choice([1, 2, 3, 8]))
        cost = ScaledCost(d=d, lam=float(rng.choice([1.0, 0.2, 0.01, 1e-4])))
        q_hat = rng.normal(0.0, float(rng.choice([0.5, 5.0])) / cost.lam, size=d)
        if rng.random() < 0.2:  # repeated coordinates make exact profit ties
            q_hat[:] = q_hat[0]
        belief = rng.dirichlet(np.ones(d))
        ctx = _context(cost, q_hat)
        dq, profit = maximize_profit(ctx, belief)
        ref_dq, ref_profit = reference_maximize_profit(ctx, belief)
        assert np.array_equal(dq, ref_dq) and profit == ref_profit


def _array_maximize_profit(ctx, belief):
    """maximize_profit with array arithmetic: the unit trades' payouts by one
    matmul, their costs less C(q_hat) by two array subtractions."""
    d = ctx.cost.d
    trades = unit_trades(d)
    costs = ctx.cost.cost(ctx.q_hat + trades)
    c_hat = float(costs[0])
    profits = (trades[1:] @ belief - (costs[1:] - c_hat)).tolist()
    best, best_profit = 0, -math.inf
    for i, profit in enumerate(profits):
        if profit > best_profit + 1e-15:
            best, best_profit = i, profit
    best_j, sell = divmod(best, 2)
    best_sign = -1.0 if sell else 1.0
    s = _best_scale(ctx, belief, best_j, best_sign)
    if 0.0 < s < 1.0:
        frac = np.zeros(d)
        frac[best_j] = best_sign * s
        frac_profit = float(frac @ belief) - (ctx.cost.cost(ctx.q_hat + frac) - c_hat)
        if frac_profit > best_profit:
            return frac, frac_profit
    return trades[1 + best].copy(), best_profit


@settings(max_examples=300, deadline=None, database=None)
@given(
    d=st.sampled_from([1, 2, 3, 8, 9]),
    lam=st.sampled_from([1.0, 0.2, 0.01, 1e-4]),
    spread=st.sampled_from([0.0, 0.5, 5.0]),
    zeros=st.integers(0, 8),
    even=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_maximize_profit_equals_the_array_formula_and_the_reference(d, lam, spread, zeros, even,
                                                                     seed):
    # profits as Python floats, b_j - (c_i - c_hat) and -b_j - (c_i - c_hat),
    # are the array formula's: +-e_j pays +-b_j exactly.  A zero belief's
    # sell pays -0.0 here and +0.0 through the matmul, which compare equal.
    # spread 0 puts q_hat on the diagonal, and with an even belief the buys
    # of its nonzero coordinates tie exactly, and so do their sells
    rng = np.random.default_rng(seed)
    cost = ScaledCost(d=d, lam=lam)
    q_hat = np.full(d, rng.normal(0.0, 1.0 / lam)) + rng.normal(0.0, spread / lam, size=d)
    belief = np.full(d, 1.0 / d) if even else rng.dirichlet(np.ones(d))
    belief[rng.permutation(d)[: min(zeros, d - 1)]] = 0.0  # some entries zero, not all
    ctx = _context(cost, q_hat)
    dq, profit = maximize_profit(ctx, belief)
    for ref_dq, ref_profit in (_array_maximize_profit(ctx, belief),
                               reference_maximize_profit(ctx, belief)):
        assert np.array_equal(dq, ref_dq) and profit == ref_profit


@pytest.mark.parametrize("d", [2, 3, 8])
def test_maximize_profit_exact_tie_at_uniform_prices(d):
    # q_hat = 0 and a uniform belief: the buys tie across coordinates, and
    # so do the sells
    cost = ScaledCost(d=d, lam=0.05)
    ctx = _context(cost, np.zeros(d))
    belief = np.full(d, 1.0 / d)
    dq, profit = maximize_profit(ctx, belief)
    ref_dq, ref_profit = reference_maximize_profit(ctx, belief)
    assert np.array_equal(dq, ref_dq) and profit == ref_profit
    assert np.flatnonzero(dq).tolist() == [0]  # the lowest coordinate wins a tie


def test_step_equals_the_per_state_reference_over_a_mixed_session():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=64)
    session = open_market(params, rng=np.random.default_rng(5))
    reference = ReferenceSession(params, np.random.default_rng(5))
    roster = [Herd(), RandomTrader(np.random.default_rng(6)),
              ArbitrageHunter(np.array([0.85, 0.15]))]
    traded = 0
    for i in range(3 * params.T):
        if session.is_full:
            break
        ctx = StrategyContext(t=session.arrivals + 1, q_hat=session.q_hat,
                              p_hat=session.p_hat, fee=params.fee, cost=session.cost)
        dq = step_strategy(roster[i % 3], ctx)
        if dq is None:
            continue
        session.step(dq)
        reference.step(dq)
        traded += 1
        assert_same_session(session, reference)
    assert traded == params.T
    assert session.close(outcome=1) == reference.close(outcome=1)
    assert np.array_equal(session.q_hat, reference.q_hat) and session.c_hat == reference.c_hat

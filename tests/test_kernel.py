"""Bit-exact checks of the batched cost kernel against the per-state references.

The block evaluation in ScaledCost, the one-block step of MarketSession and
the one-block best-response search use the same arithmetic as the per-state
engine they replaced, so every comparison here is ==, not approx.
"""

import numpy as np
import pytest

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

from oracles import (
    ReferenceSession,
    reference_cost,
    reference_maximize_profit,
    reference_prices,
)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_block_cost_and_prices_equal_per_row_references(d):
    rng = np.random.default_rng(d)
    for lam in (1.0, 0.3, 0.0123, 1e-4):
        cost = ScaledCost(d=d, lam=lam)
        for scale in (1.0, 50.0, 1e4):
            block = rng.normal(0.0, scale, size=(int(rng.integers(1, 200)), d))
            block[0] = rng.uniform(0.99e4, 1.01e4, size=d) * rng.choice([-1.0, 1.0], size=d)
            costs = cost.cost(block)
            prices = cost.prices(block)
            assert costs.shape == (len(block),) and prices.shape == block.shape
            for row, c, p in zip(block, costs, prices):
                assert c == reference_cost(cost, row)
                assert np.array_equal(p, reference_prices(cost, row))
                single = cost.cost(row)
                assert type(single) is float and single == c
                assert np.array_equal(cost.prices(row), p)


def test_non_finite_states_raise():
    cost = ScaledCost(d=3, lam=0.5)
    for bad_row in ([0.0, np.inf, 1.0], [0.0, np.nan, 1.0], [-np.inf] * 3):
        block = np.zeros((4, 3))
        block[2] = bad_row
        for q in (block, block[2]):
            with pytest.raises(InvalidParameterError, match="non-finite"):
                cost.cost(q)
            with pytest.raises(InvalidParameterError, match="non-finite"):
                cost.prices(q)


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


SESSION_FIELDS = ("q_hat", "p_hat", "c_hat", "q_true", "trade_payments", "fee_total",
                  "noise_buy_total", "noise_sell_total", "bundle_l2_total",
                  "max_price_gap", "max_share_gap", "arrivals")


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
        for name in SESSION_FIELDS:
            assert np.array_equal(getattr(session, name), getattr(reference, name)), name
        # held (time, value) pairs, oldest first; noise_buy_total is in SESSION_FIELDS
        assert [time for time, _ in session.noise.held] == list(reference.held)
        for (_, ours), theirs in zip(session.noise.held, reference.held.values()):
            assert np.array_equal(ours, theirs.value)
    assert traded == params.T
    assert session.close(outcome=1) == reference.close(outcome=1)
    assert np.array_equal(session.q_hat, reference.q_hat) and session.c_hat == reference.c_hat

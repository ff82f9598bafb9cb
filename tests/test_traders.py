"""Strategy behavior: best response, fee deterrence, information hygiene."""

import dataclasses
import math

import numpy as np
import pytest

from privmarket import (
    Abstainer,
    ArbitrageHunter,
    Herd,
    InvalidParameterError,
    MarketParams,
    RandomTrader,
    STRATEGY_KINDS,
    ScaledCost,
    Strategy,
    StrategyBugError,
    StrategyContext,
    best_response,
    drive_session,
    make_strategy,
    maximize_profit,
    open_market,
    step_strategy,
)

from oracles import reference_cost


def _ctx(q_hat, lam=0.01, fee=0.0, t=1):
    q_hat = np.asarray(q_hat, dtype=float)
    cost = ScaledCost(d=q_hat.shape[0], lam=lam)
    return StrategyContext(t=t, q_hat=q_hat, p_hat=cost.prices(q_hat), fee=fee, cost=cost)


def test_context_exposes_only_published_data():
    # the context field set is the information boundary; widening it is an
    # API change that needs a deliberate decision, not an accident
    names = {f.name for f in dataclasses.fields(StrategyContext)}
    assert names == {"t", "q_hat", "p_hat", "fee", "cost"}


def _expected_profit(ctx, belief, dq):
    """<dq, belief> minus the trade's cost at the published state, by the scalar reference."""
    return float(dq @ belief) - (
        reference_cost(ctx.cost, ctx.q_hat + dq) - reference_cost(ctx.cost, ctx.q_hat)
    )


def test_expected_profit_worked_value():
    ctx = _ctx([0.0, 0.0], lam=0.01)
    profit = _expected_profit(ctx, np.array([0.8, 0.2]), np.array([1.0, 0.0]))
    assert profit == pytest.approx(0.29875000520830786, abs=1e-12)
    # the full unit buy is also the package's best trade here, at the same profit
    dq, best = maximize_profit(ctx, np.array([0.8, 0.2]))
    assert np.array_equal(dq, [1.0, 0.0])
    assert best == pytest.approx(0.29875000520830786, abs=1e-12)


def test_best_response_worked_example():
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.1)
    dq = best_response(ctx, np.array([0.8, 0.2]))
    assert dq == pytest.approx([1.0, 0.0])
    # the same edge under a fee larger than the edge: abstain
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.35)
    assert best_response(ctx, np.array([0.8, 0.2])) is None


def test_abstains_when_belief_matches_prices():
    ctx = _ctx([0.0, 0.0, 0.0], lam=0.2)
    assert best_response(ctx, np.full(3, 1.0 / 3.0)) is None
    ctx = _ctx([3.0, 1.0], lam=0.1, fee=0.0)
    belief = ctx.p_hat
    assert best_response(ctx, belief) is None


def test_tie_breaking_is_deterministic():
    # coordinates 1 and 3 are equally overpriced: the tie resolves to the
    # lower index, whatever fractional size the refinement settles on
    ctx = _ctx([0.0, 0.0, 0.0, 0.0], lam=1.0)
    dq, profit = maximize_profit(ctx, np.array([0.3, 0.2, 0.3, 0.2]))
    assert dq[1] < 0.0
    assert dq[0] == 0.0 and dq[2] == 0.0 and dq[3] == 0.0
    # uniform belief at the origin: buying and selling tie; buy e_0 kept
    ctx = _ctx([0.0, 0.0], lam=1.0)
    dq, profit = maximize_profit(ctx, np.array([0.5, 0.5]))
    assert dq[0] > 0.0
    assert profit < 0.0


def test_fractional_refinement_lands_on_belief():
    ctx = _ctx([0.0, 0.0], lam=1.0)
    belief = np.array([0.6, 0.4])
    dq, profit = maximize_profit(ctx, belief)
    assert dq[0] == pytest.approx(math.log(1.5), abs=1e-12)
    assert profit > 0.0
    post = ctx.cost.prices(ctx.q_hat + dq)
    assert post[0] == pytest.approx(0.6, abs=1e-9)
    # refinement must never lose to the full unit trade it refines
    full = _expected_profit(ctx, belief, np.array([1.0, 0.0]))
    assert profit >= full


def test_fee_radius_deters_nearby_beliefs():
    # any belief within l-inf distance alpha of the published prices cannot
    # clear a fee of alpha, whatever single-coordinate trade it tries
    rng = np.random.default_rng(0)
    alpha = 0.12
    for _ in range(200):
        d = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.01, 1.0))
        q_hat = rng.normal(0.0, 1.0 / lam, size=d)
        ctx = _ctx(q_hat, lam=lam, fee=alpha)
        w = float(rng.uniform(0.0, alpha))
        u = rng.dirichlet(np.ones(d))
        belief = (1.0 - w) * ctx.p_hat + w * u
        assert best_response(ctx, belief) is None


def test_mispricing_profit_floor():
    # whenever some coordinate is mispriced by gap >= 2*alpha and lam < alpha,
    # the best response clears the fee and nets at least gap - lam
    rng = np.random.default_rng(1)
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.02, 0.2))
        lam = alpha * float(rng.uniform(0.05, 0.95))
        q_hat = rng.normal(0.0, 0.5 / lam, size=d)
        ctx = _ctx(q_hat, lam=lam, fee=alpha)
        p_hat = ctx.p_hat
        delta = 2.0 * alpha * 1.01
        j = int(np.argmax(np.minimum(1.0 - p_hat, p_hat)))
        belief = p_hat.copy()
        if p_hat[j] + delta <= 0.98:
            belief[j] += delta
        else:
            belief[j] -= delta
        belief[np.arange(d) != j] *= (1.0 - belief[j]) / (1.0 - p_hat[j])
        gap = float(np.max(np.abs(belief - p_hat)))
        assert gap >= 2.0 * alpha - 1e-12
        dq, profit = maximize_profit(ctx, belief)
        assert profit >= gap - lam - 1e-9
        assert profit > alpha
        assert best_response(ctx, belief) is not None


def test_arbitrage_hunter_threshold():
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.1)
    # deviation 0.2 beats the default (fee) threshold: trades
    assert ArbitrageHunter(np.array([0.7, 0.3])).decide(ctx) is not None
    # deviation 0.05 does not: abstains
    assert ArbitrageHunter(np.array([0.55, 0.45])).decide(ctx) is None
    # explicit threshold overrides the fee default
    assert ArbitrageHunter(np.array([0.55, 0.45]), threshold=0.01).decide(ctx) is not None
    big_fee = _ctx([0.0, 0.0], lam=0.01, fee=0.5)
    assert ArbitrageHunter(np.array([0.7, 0.3])).decide(big_fee) is None
    # threshold zero plus any noise-induced deviation: always trades
    off = _ctx([0.3, 0.0], lam=0.01)
    hunter = ArbitrageHunter(np.array([0.5, 0.5]), threshold=0.0)
    assert hunter.decide(off) is not None


def test_simple_strategies():
    ctx = _ctx([0.0, 0.0, 0.0], lam=0.01)
    assert Herd().decide(ctx) == pytest.approx([1.0, 0.0, 0.0])
    assert Herd(coordinate=2).decide(ctx) == pytest.approx([0.0, 0.0, 1.0])
    assert Abstainer().decide(ctx) is None
    a = RandomTrader(np.random.default_rng(5)).decide(ctx)
    b = RandomTrader(np.random.default_rng(5)).decide(ctx)
    assert np.array_equal(a, b)
    assert float(np.sum(np.abs(a))) == 1.0


@pytest.mark.parametrize("d", [2, 8])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_random_trader_keeps_the_choice_stream(d, seed):
    # RandomTrader must draw its sign as rng.choice([-1.0, 1.0]) does, or
    # every seeded run with a random trader changes
    trader = RandomTrader(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    ctx = _ctx(np.zeros(d))
    for _ in range(2000):
        expect = np.zeros(d)
        expect[int(rng.integers(d))] = float(rng.choice([-1.0, 1.0]))
        assert np.array_equal(trader.decide(ctx), expect)
    assert trader.rng.random() == rng.random()


def test_make_strategy():
    rng = np.random.default_rng(0)
    for kind in STRATEGY_KINDS:
        strat = make_strategy(kind, {}, 2, rng)
        assert strat.kind == kind
    b = make_strategy("belief", {}, 4, rng)
    assert b.belief == pytest.approx(np.full(4, 0.25))
    h = make_strategy("arbitrage_hunter", {"belief": [0.9, 0.1], "threshold": 0.2}, 2, rng)
    assert h.threshold == 0.2
    assert make_strategy("herd", {"coordinate": 1}, 2, rng).coordinate == 1
    with pytest.raises(InvalidParameterError):
        make_strategy("belief", {"belief": [0.9, 0.2]}, 2, rng)  # sums to 1.1
    with pytest.raises(InvalidParameterError):
        make_strategy("momentum", {}, 2, rng)
    with pytest.raises(InvalidParameterError):
        make_strategy("herd", {"speed": 3}, 2, rng)  # unknown param


def test_step_strategy_validates_bundles():
    # step_strategy only asks; the session validates each bundle once, and
    # drive_session blames the strategy for a bundle the session rejects
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=4)
    ctx = _ctx([0.0, 0.0], lam=0.01)

    class Oversize(Strategy):
        kind = "oversize"

        def decide(self, ctx):
            return np.array([1.0, 1.0])

    class WrongShape(Strategy):
        kind = "wrong_shape"

        def decide(self, ctx):
            return np.array([1.0])

    class NotFinite(Strategy):
        kind = "not_finite"

        def decide(self, ctx):
            return np.array([np.inf, 0.0])

    for bad in (Oversize(), WrongShape(), NotFinite()):
        session = open_market(params, rng=0)
        with pytest.raises(StrategyBugError, match=f"{bad.kind} returned a bad bundle"):
            drive_session(session, iter([bad]))
        assert session.arrivals == 0 and session.noise.t == 0
    assert step_strategy(Abstainer(), ctx) is None
    assert step_strategy(Herd(), ctx) is not None


def test_drive_session_stream_semantics():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=4, noise_off=True)
    herd = Herd()
    session = open_market(params, rng=0)
    stream = iter([herd] * 10)
    exhausted = drive_session(session, stream)
    assert not exhausted and session.is_full
    assert session.arrivals == 4
    assert len(list(stream)) == 6  # a full market stops consuming the stream

    # abstainers burn stream slots without filling the market
    session = open_market(params, rng=0)
    quiet = Abstainer()
    exhausted = drive_session(session, iter([quiet, herd] * 3))
    assert exhausted
    assert session.arrivals == 3
    assert session.q_true == pytest.approx([3.0, 0.0])  # only the herd traded


def test_drive_session_context_tracks_published_state():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=3, noise_off=True)
    session = open_market(params, rng=0)

    class Recorder(Strategy):
        kind = "recorder"

        def __init__(self):
            self.seen = []

        def decide(self, ctx):
            assert not ctx.q_hat.flags.writeable and not ctx.p_hat.flags.writeable
            self.seen.append((ctx.t, float(ctx.q_hat[0])))
            dq = np.zeros(ctx.cost.d)
            dq[0] = 1.0
            return dq

    rec = Recorder()
    drive_session(session, iter([rec] * 3))
    assert rec.seen == [(1, 0.0), (2, 1.0), (3, 2.0)]

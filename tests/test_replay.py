"""Independent replay oracle for the step engine.

The oracle rebuilds a whole session from the seed alone: it redraws every
noise bundle with sample_bundle from the same generator and recomputes
every cash flow from the bits of t with plain per-step cost calls: step t
sells the bundles bought at t - 1, t - 2, t - 4, ... for each trailing zero
bit.  Each published state is carried as the engine carries it, the state
after the sales plus the new bundle (so its last bits, and the costs taken
at it, are the engine's), and checked against q^t + noise_path_sum(t)
computed independently.  It shares no
state with MarketSession, so ledger agreement checks the cached costs, the
held stack and the running metrics of the engine.
"""

import dataclasses
import math

import numpy as np
import pytest

from privmarket import (
    Herd,
    MarketParams,
    RandomTrader,
    ScaledCost,
    Stream,
    drive_session,
    noise_scale,
    open_market,
    sample_bundle,
)

from oracles import noise_path_sum

OUTCOME = 1


def _trades(roster: str, d: int, T: int, seed: int):
    """The trade sequence the roster produces, redrawn from its own seed."""
    if roster == "herd":
        return [np.eye(d)[0] for _ in range(T)]
    rng = np.random.default_rng(seed)
    trades = []
    for _ in range(T):
        dq = np.zeros(d)
        dq[int(rng.integers(d))] = float(rng.choice([-1.0, 1.0]))
        trades.append(dq)
    return trades


def _replay(params: MarketParams, trades, seed: int) -> dict:
    d, T = params.d, len(trades)
    cost = ScaledCost(d=d, lam=params.lam)
    rng = np.random.default_rng(seed)
    scale = noise_scale(params.T, params.epsilon)
    z = {
        t: np.zeros(d) if params.noise_off else sample_bundle(d, scale, rng)
        for t in range(1, T + 1)
    }
    q = np.zeros(d)
    q_hat = np.zeros(d)
    payments = buys = sells = 0.0
    price_gap = share_gap = 0.0
    for t, dq in enumerate(trades, start=1):
        payments += cost.cost(q_hat + dq) - cost.cost(q_hat)
        q = q + dq
        state = q_hat + dq
        gap = 1
        while not t & gap:
            s = t - gap
            sells += cost.cost(state) - cost.cost(state - z[s])
            state = state - z[s]
            gap <<= 1
        buys += cost.cost(state + z[t]) - cost.cost(state)
        q_hat = state + z[t]  # published as the engine publishes it
        assert q_hat == pytest.approx(q + noise_path_sum(t, z), rel=1e-12, abs=1e-9)
        price_gap = max(price_gap, float(np.sum(np.abs(cost.prices(q) - cost.prices(q_hat)))))
        share_gap = max(share_gap, float(np.sum(np.abs(q - q_hat))))
    # close: sell the remaining path most recent first
    u = T
    while u > 0:
        sells += cost.cost(q_hat) - cost.cost(q_hat - z[u])
        q_hat = q_hat - z[u]
        u &= u - 1
    payouts = float(sum(dq[OUTCOME] for dq in trades))
    mm_loss = payouts - (cost.cost(q) - cost.cost(np.zeros(d)))
    fees = params.fee * T
    ntl = buys - sells
    return {
        "mm_loss": mm_loss,
        "ntl": ntl,
        "fees": fees,
        "designer_loss": mm_loss + ntl - fees,
        "payouts": payouts,
        "trade_payments": payments,
        "arrivals": T,
        "max_price_gap": price_gap,
        "max_share_gap": share_gap,
        "mean_bundle_l2": float(np.mean([np.linalg.norm(v) for v in z.values()])),
    }


@pytest.mark.parametrize("noise_off", [False, True], ids=["noise", "noise_off"])
@pytest.mark.parametrize("T", [64, 100])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("roster", ["herd", "random"])
def test_engine_matches_replay_oracle(roster, d, T, noise_off):
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T, noise_off=noise_off)
    for seed in range(3):
        trader = Herd() if roster == "herd" else RandomTrader(np.random.default_rng(seed + 50))
        session = open_market(params, rng=seed)
        for t in range(1, T + 1):
            drive_session(session, Stream((trader,), 1))
            assert session.arrivals == t
            assert len(session.noise.held) == t.bit_count()
        engine = {
            "max_price_gap": session.max_price_gap,
            "max_share_gap": session.max_share_gap,
            "mean_bundle_l2": session.mean_bundle_l2,
        }
        ledger = session.close(OUTCOME)
        engine.update(dataclasses.asdict(ledger))
        oracle = _replay(params, _trades(roster, d, T, seed + 50), seed)
        assert set(engine) == set(oracle)
        for name, want in oracle.items():
            assert math.isclose(engine[name], want, rel_tol=1e-9, abs_tol=1e-12), name
        if noise_off:
            assert engine["ntl"] == 0.0 and engine["max_share_gap"] == 0.0

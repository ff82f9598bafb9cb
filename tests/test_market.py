"""Session mechanics: parameter resolution, ledger identities, loss bounds."""

import math
import re

import numpy as np
import pytest

from privmarket import (
    InvalidParameterError,
    InvalidStateError,
    Ledger,
    MarketClosedError,
    MarketParams,
    MarketSession,
    TradeRejectedError,
    lambda_star,
    loss_bounds,
    noise_scale_K,
    open_market,
)

from privmarket import cost as cost_module
from privmarket.cost import unit_trades
from privmarket.market import check_bundle

from oracles import ReferenceSession, held_pairs, low_bit


def test_lambda_star_worked_values():
    assert lambda_star(16, 0.1, 0.1, 1.0, 1) == pytest.approx(
        0.0007661531640903023, rel=1e-12
    )
    assert lambda_star(16, 0.2, 0.05, 1.0, 2) == pytest.approx(
        0.0006177016040625219, rel=1e-12
    )
    assert lambda_star(64, 0.3, 0.1, 1.0, 2) == pytest.approx(
        0.0005631436172173787, rel=1e-12
    )
    # independent arithmetic for the first: 0.1 * 1 / (4 sqrt2 * 1 * 4 * ln 320)
    assert lambda_star(16, 0.1, 0.1, 1.0, 1) == pytest.approx(
        0.1 / (16.0 * math.sqrt(2.0) * math.log(320.0)), rel=1e-12
    )


def test_lambda_star_validation():
    with pytest.raises(InvalidParameterError):
        lambda_star(1, 0.1, 0.1, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        lambda_star(16, 0.0, 0.1, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        lambda_star(16, 0.1, 1.0, 1.0, 1)
    with pytest.raises(InvalidParameterError):
        lambda_star(16, 0.1, 0.1, -1.0, 1)


def test_noise_scale_K_values():
    assert noise_scale_K(16, 1.0, 2) == pytest.approx(16.0, rel=1e-12)
    assert noise_scale_K(16, 1.0, 1) == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-12)
    assert noise_scale_K(64, 0.5, 2) == pytest.approx(48.0, rel=1e-12)


def test_loss_bounds_worked_values():
    lam = lambda_star(16, 0.1, 0.1, 1.0, 1)
    lb = loss_bounds(lam, 16, noise_scale_K(16, 1.0, 1), fee=0.1, B1=0.0)
    assert lb.ntl_bound == pytest.approx(0.2773770740509606, rel=1e-12)
    assert lb.wc_bound == pytest.approx(-1.0452458518980787, rel=1e-12)
    assert lb.fee_threshold == pytest.approx(0.002209708691207961, rel=1e-12)
    assert lb.fee_sufficient

    lam = lambda_star(16, 0.2, 0.05, 1.0, 2)
    lb = loss_bounds(lam, 16, noise_scale_K(16, 1.0, 2), fee=0.2, B1=math.log(2))
    assert lb.ntl_bound == pytest.approx(0.3162632212800112, rel=1e-12)
    assert lb.fee_threshold == pytest.approx(0.2 / 64.0, rel=1e-12)

    # single-arrival horizon has no stacking, so no noise-loss term
    lb = loss_bounds(0.5, 1, 4.0, fee=0.0, B1=math.log(2))
    assert lb.ntl_bound == 0.0 and lb.fee_sufficient
    with pytest.raises(InvalidParameterError):
        loss_bounds(0.0, 16, 1.0, fee=0.1, B1=0.0)


def test_default_lambda_always_fee_covered():
    # at lam = lambda_star and fee = alpha the sufficiency condition always holds
    for T in (8, 64, 512, 4096):
        for alpha in (0.05, 0.2):
            for gamma in (0.05, 0.1):
                for eps in (0.5, 1.0):
                    for d in (1, 2, 3):
                        lam = lambda_star(T, alpha, gamma, eps, d)
                        lb = loss_bounds(
                            lam, T, noise_scale_K(T, eps, d), fee=alpha, B1=math.log(d)
                        )
                        assert lb.fee_sufficient


def test_market_params_resolution():
    p = MarketParams(d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=16)
    assert p.fee == 0.2
    assert p.lam == pytest.approx(0.0006177016040625219, rel=1e-12)
    assert p.lam == p.lam_star
    assert p.B1 == pytest.approx(math.log(2))

    with pytest.raises(InvalidParameterError):
        MarketParams(d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=16, lam=0.01)
    loose = MarketParams(
        d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=16, lam=0.01, allow_unsafe_lambda=True
    )
    assert loose.lam == 0.01
    with pytest.raises(InvalidParameterError):
        MarketParams(d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=16, lam=0.0,
                     allow_unsafe_lambda=True)
    with pytest.raises(InvalidParameterError):
        MarketParams(d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=16, fee=-0.1)


def _unsafe_params(**kw):
    base = dict(
        d=2, epsilon=1.0, alpha=0.2, gamma=0.05, T=4, fee=0.05, lam=1.0,
        noise_off=True, allow_unsafe_lambda=True,
    )
    base.update(kw)
    return MarketParams(**base)


def test_single_trade_worked_ledger():
    session = open_market(_unsafe_params(), rng=0)
    session.step(np.array([1.0, 0.0]))
    ledger = session.close(outcome=0)
    assert ledger.trade_payments == pytest.approx(0.6201145069582775, abs=1e-12)
    assert ledger.payouts == pytest.approx(1.0)
    assert ledger.mm_loss == pytest.approx(0.3798854930417225, abs=1e-12)
    assert ledger.ntl == 0.0
    assert ledger.fees == pytest.approx(0.05)
    assert ledger.designer_loss == pytest.approx(0.3298854930417225, abs=1e-12)
    assert ledger.arrivals == 1
    # losing outcome flips the sign of the designer's fortune
    session = open_market(_unsafe_params(), rng=0)
    session.step(np.array([1.0, 0.0]))
    ledger = session.close(outcome=1)
    assert ledger.mm_loss == pytest.approx(-0.6201145069582775, abs=1e-12)


def test_trade_validation():
    session = open_market(_unsafe_params(), rng=0)
    with pytest.raises(TradeRejectedError):
        session.step(np.array([1.0, 0.6]))  # l1 norm 1.6
    with pytest.raises(TradeRejectedError):
        session.step(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(TradeRejectedError):
        session.step(np.array([np.nan, 0.0]))
    assert session.arrivals == 0  # rejected trades leave no trace


def test_a_list_is_a_list_of_bundles():
    # only an ndarray (d,) is read as one bundle; d scalars in a list are not
    session = open_market(_unsafe_params(), rng=0)
    with pytest.raises(TradeRejectedError, match="bundle 0 must have shape"):
        session.step([0.5, 0.5])
    assert session.arrivals == 0
    session.step(np.array([0.5, 0.5]))
    session.step([[0.5, 0.5], np.array([-0.5, 0.0])])
    assert session.arrivals == 3


def _bundles_of_every_edge(d: int) -> dict:
    """Float64 (d,) bundles at and past each edge check_bundle tests."""
    over = np.full(d, (1.0 + 2e-9) / d)
    over[-1] = (1.0 + 2e-9) - over[:-1].sum()
    at_tol = np.eye(d)[0] * (1.0 + 0.5e-9)
    wide = np.zeros(2 * d)
    wide[::2] = 1.0 / d  # a strided view of it is a bundle of l1 norm 1
    read_only = np.full(d, 0.5 / d)
    read_only.flags.writeable = False
    cases = {"unit": np.eye(d)[-1], "zero": np.zeros(d), "minus zero": np.full(d, -0.0),
             "minus zero beside a trade": np.where(np.arange(d) == 0, -0.25, -0.0),
             "l1 1 + 2e-9": over, "l1 1 + 0.5e-9": at_tol, "l1 2": np.full(d, 2.0 / d),
             "strided": wide[::2], "read-only": read_only}
    for v in (np.nan, np.inf, -np.inf):
        bad = np.zeros(d)
        bad[-1] = v
        cases[f"{v} entry"] = bad
    return cases


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_check_bundle_direct_path_matches_the_block_path(d):
    # a float64 ndarray (d,) or (1, d) is checked directly; the same bundle
    # as a list of one goes through the block path: the same verdict, row
    # and message, and the same bits; the direct path returns a (1, d) view
    refused = set()
    for name, x in _bundles_of_every_edge(d).items():
        results = []
        row = x[None]  # the one blind slot booked before a state reader
        for dq in (x, row, [x]):
            try:
                results.append(check_bundle(dq, d))
            except TradeRejectedError as exc:
                results.append((exc.row, str(exc)))
        direct, direct_row, block = results
        if isinstance(block, tuple):
            assert direct == direct_row == block, name
            refused.add(name)
        else:
            assert isinstance(direct, np.ndarray), (name, direct)
            assert direct.shape == block.shape == (1, d) and direct.tobytes() == block.tobytes(), name
            assert direct.base is x or direct.base is x.base, name  # a view, not a copy
            assert direct_row is row, name
    assert refused == {"l1 1 + 2e-9", "l1 2", "nan entry", "inf entry", "-inf entry"}
    with pytest.raises(TradeRejectedError, match="bundle 0 l1 norm 2.000000 exceeds 1"):
        check_bundle(np.full(d, 2.0 / d), d)


@pytest.mark.parametrize("d", [1, 2])
def test_bundles_must_hold_ints_or_floats(d):
    # complex, str, bytes, bool and object entries are refused, also beside
    # float bundles in a list, where numpy would read bools as floats;
    # ints, unsigned ints and other float widths are read as float64
    good = np.eye(d)[0] * 0.5
    refused = {"complex128": good + 0.7j, "<U3": np.array(["0.5"] * d), "|S3": np.array([b"0.5"] * d),
               "bool": np.ones(d, dtype=bool), "object": good.astype(object)}
    for dtype, bad in refused.items():
        for dq, row in ((bad, 0), ([bad], 0), ([good, good, bad], 2), (np.stack([bad, bad]), 0)):
            with pytest.raises(TradeRejectedError, match=f"^bundle {row} entries must be ints or floats, "
                                                         f"not {re.escape(dtype)}$") as info:
                check_bundle(dq, d)
            assert info.value.row == row
    for dq in (np.eye(d, dtype=int)[0], np.eye(d, dtype=np.uint8), [[1] + [0] * (d - 1)],
               good.astype(np.float32), good.astype(">f8")):
        block = check_bundle(dq, d)
        assert block.dtype == np.float64 and np.array_equal(block, np.reshape(dq, (-1, d)))


def test_a_bool_entry_of_a_list_bundle_is_refused():
    # numpy reads [True, 0.0] as float64 and [True, 0] as int64, so the
    # dtype alone would book a bool as 1.0; a bool is refused before any l1 check
    for dq, row in (([[True, 0.0]], 0), ([[True, 0]], 0), ([[np.True_, 0.0]], 0),
                    (([0.5, True],), 0), ([[0.5, 0.0], (0.0, False)], 1)):
        with pytest.raises(TradeRejectedError,
                           match=f"^bundle {row} entries must be ints or floats, not bool$") as info:
            check_bundle(dq, 2)
        assert info.value.row == row
    assert check_bundle([[1, 0.0], (0, -0.5)], 2).tolist() == [[1.0, 0.0], [0.0, -0.5]]


def test_full_and_closed_errors():
    session = open_market(_unsafe_params(T=2), rng=0)
    session.step(np.array([1.0, 0.0]))
    session.step(np.array([0.0, -1.0]))
    assert session.is_full
    with pytest.raises(MarketClosedError):
        session.step(np.array([1.0, 0.0]))
    session.close(0)
    with pytest.raises(MarketClosedError):
        session.step(np.array([1.0, 0.0]))
    with pytest.raises(InvalidStateError):
        session.close(0)


def test_close_rejects_unknown_outcome():
    session = open_market(_unsafe_params(T=4), rng=0)
    session.step(np.array([1.0, 0.0]))
    held = [time for time, _ in held_pairs(session.noise)]
    for outcome in (2, -1):  # d == 2
        with pytest.raises(InvalidParameterError):
            session.close(outcome)
        # nothing was sold back or settled: the session stays open
        assert not session.closed
        assert [time for time, _ in held_pairs(session.noise)] == held
    session.step(np.array([0.0, 1.0]))
    assert session.close(1).arrivals == 2


def test_published_state_tracks_noise():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=32)
    session = open_market(params, rng=7)
    rng = np.random.default_rng(11)
    for _ in range(32):
        dq = np.zeros(2)
        dq[rng.integers(2)] = rng.choice([-1.0, 1.0])
        session.step(dq)
        gap = session.q_hat - session.q_true - session.noise.held_sum()
        assert float(np.max(np.abs(gap))) < 1e-9
    assert session.arrivals == 32
    assert session.p_hat == pytest.approx(session.cost.prices(session.q_hat), abs=1e-15)
    assert session.max_share_gap > 0.0
    assert session.max_price_gap > 0.0


def test_noise_off_publishes_truth():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=8, noise_off=True)
    session = open_market(params, rng=0)
    for _ in range(8):
        session.step(np.array([1.0, 0.0]))
    assert session.max_share_gap == 0.0
    assert session.max_price_gap == 0.0
    ledger = session.close(0)
    assert ledger.ntl == 0.0


def test_payment_telescoping_and_sellback():
    params = MarketParams(d=3, epsilon=0.5, alpha=0.2, gamma=0.05, T=64)
    session = open_market(params, rng=3)
    rng = np.random.default_rng(5)
    for _ in range(64):
        dq = np.zeros(3)
        dq[rng.integers(3)] = rng.choice([-1.0, 1.0])
        session.step(dq)
    ledger = session.close(1)
    # after full sell-back the published state collapses onto the truth
    assert session.q_hat == pytest.approx(session.q_true, abs=1e-9)
    total_in = ledger.trade_payments + session.noise_buy_total - session.noise_sell_total
    collected = session.cost.cost(session.q_true) - session.cost.cost(session.q_init)
    assert total_in == pytest.approx(collected, abs=1e-8)


def test_ledger_identities():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=16)
    for seed in range(5):
        session = open_market(params, rng=seed)
        rng = np.random.default_rng(100 + seed)
        for _ in range(16):
            dq = np.zeros(2)
            dq[rng.integers(2)] = rng.choice([-1.0, 1.0])
            session.step(dq)
        ledger = session.close(0)
        assert ledger.designer_loss == ledger.mm_loss + ledger.ntl - ledger.fees
        physical = ledger.payouts - ledger.trade_payments - ledger.fees
        assert ledger.designer_loss == pytest.approx(physical, abs=1e-8)


def test_bundle_loss_pathwise_bound():
    # each bundle's realized loss obeys |loss| <= lam * span * ||z||_inf where
    # span counts the arrivals between purchase and sale; the per-bundle cash
    # comes from the reference engine, whose ledger equals the session's
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=32)
    for seed in range(20):
        session = open_market(params, rng=seed)
        reference = ReferenceSession(params, np.random.default_rng(seed))
        rng = np.random.default_rng(200 + seed)
        for _ in range(32):
            dq = np.zeros(2)
            dq[rng.integers(2)] = rng.choice([-1.0, 1.0])
            session.step(dq)
            reference.step(dq)
        assert session.close(0) == reference.close(0)
        bundles = reference.bundles
        assert sorted(bundles) == list(range(1, 33))
        for bundle in bundles.values():
            span = bundle.sold_at - bundle.time
            cap = params.lam * span * float(np.max(np.abs(bundle.value)))
            assert abs(bundle.buy_cost - bundle.revenue) <= cap * (1 + 1e-9) + 1e-12
            if bundle.sold_at != session.noise.t:
                assert span == low_bit(bundle.time)


def test_zero_arrival_close():
    session = open_market(_unsafe_params(), rng=0)
    ledger = session.close(0)
    assert ledger == Ledger(
        mm_loss=0.0, ntl=0.0, fees=0.0, designer_loss=0.0,
        payouts=0.0, trade_payments=0.0, arrivals=0,
    )


def test_initial_shares_handoff():
    q0 = np.array([2.0, 0.0])
    session = open_market(_unsafe_params(), initial_shares=q0, rng=0)
    start = session.p_hat
    expect = np.exp(q0) / np.exp(q0).sum()
    assert start == pytest.approx(expect, abs=1e-12)
    session.step(np.array([0.0, 1.0]))
    ledger = session.close(1)
    cost = session.cost
    assert ledger.mm_loss == pytest.approx(
        1.0 - (cost.cost(q0 + np.array([0.0, 1.0])) - cost.cost(q0)), abs=1e-12
    )
    with pytest.raises(InvalidParameterError):
        open_market(_unsafe_params(), initial_shares=np.zeros(3), rng=0)
    # -inf once opened with p_hat == [0, 1] and failed the held-noise check
    # at the first step
    for bad in (-math.inf, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="initial shares must be 2 finite numbers"):
            open_market(_unsafe_params(), initial_shares=[bad, 0.0], rng=0)


def test_ledger_combine():
    a = Ledger(1.0, 2.0, 0.5, 2.5, 3.0, 1.0, 4)
    b = Ledger(-1.0, 0.0, 0.25, -1.25, 0.0, 2.0, 6)
    c = Ledger.combine([a, b])
    assert c == Ledger(0.0, 2.0, 0.75, 1.25, 3.0, 3.0, 10)


def test_open_market_seeding():
    # open_market is the session itself, which turns a seed or None into its
    # generator and keeps a Generator as it is
    assert open_market is MarketSession
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=4)
    a = open_market(params, rng=42)
    b = MarketSession(params, 42)
    a.step(np.array([1.0, 0.0]))
    b.step(np.array([1.0, 0.0]))
    assert np.array_equal(a.q_hat, b.q_hat)
    rng = np.random.default_rng(42)
    c = open_market(params, rng=rng)
    assert c.rng is rng
    c.step(np.array([1.0, 0.0]))
    assert np.array_equal(a.q_hat, c.q_hat)
    for session in (a, b):
        session.step(np.tile([0.25, 0.5], (3, 1)))
    assert _booked(a) == _booked(b) and a.close(0) == b.close(0)
    assert isinstance(MarketSession(params).rng, np.random.Generator)


def _noisy_session(steps: int):
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=16)
    session = open_market(params, rng=7)
    for _ in range(steps):
        session.step(np.array([0.5, -0.25]))
    return session


def test_step_detects_published_state_out_of_sync_with_held_noise():
    session = _noisy_session(3)  # held: the bundles bought at t = 2 and t = 3
    held_pairs(session.noise)[0][1][0] += 1.0  # corrupt a held bundle in place
    with pytest.raises(InvalidStateError, match="lost sync with held noise"):
        session.step(np.array([0.0, 0.5]))


def _booked(session) -> tuple:
    """Everything close books: cash totals, published state, held levels, counter."""
    names = ("trade_payments", "fee_total", "noise_buy_total", "noise_sell_total",
             "bundle_l2_total", "q_hat", "c_hat", "closed")
    noise = session.noise
    return ([np.asarray(getattr(session, name)).tolist() for name in names],
            noise.levels.tolist(), noise.mask, noise.t)


def test_close_detects_sell_back_disagreeing_with_batch_total():
    session = _noisy_session(3)
    before = _booked(session)
    held_sum = session.noise.held_sum
    session.noise.held_sum = lambda: held_sum() + np.array([1.0, 0.0])
    with pytest.raises(InvalidStateError, match="disagrees with batch total"):
        session.close(0)
    assert _booked(session) == before  # the check runs before anything is booked
    del session.noise.held_sum
    assert session.close(0) == _noisy_session(3).close(0)


# mid-session; one block to T = 16; one bundle (no block plan) at t = 4 and t = 8
@pytest.mark.parametrize("steps, k", [(3, 5), (0, 16), (3, 1), (7, 1)])
def test_step_detects_the_levels_it_books_out_of_sync_with_published_state(steps, k):
    session = _noisy_session(steps)
    advance = session.noise.advance

    def advance_one_level_off(*args):
        advance(*args)
        noise = session.noise
        noise.levels[(noise.mask & -noise.mask).bit_length() - 1, 0] += 1e-3  # the last buy

    session.noise.advance = advance_one_level_off
    before = _booked(session)[0], session.q_true.tolist(), session.p_hat.tolist()
    with pytest.raises(InvalidStateError, match="lost sync with held noise"):
        session.step(np.tile([0.5, -0.25], (k, 1)))
    # the check runs before the session books the block
    assert (_booked(session)[0], session.q_true.tolist(), session.p_hat.tolist()) == before
    assert session.arrivals == steps


@pytest.mark.parametrize("steps", [5, 16])
def test_close_detects_held_levels_out_of_sync_with_published_state(steps):
    session = _noisy_session(steps)
    held_pairs(session.noise)[0][1][1] -= 1e-3  # corrupt the oldest held bundle after the last step
    before = _booked(session)
    with pytest.raises(InvalidStateError, match="lost sync with held noise"):
        session.close(0)
    assert _booked(session) == before  # the check runs before anything is booked


def test_open_and_close_each_make_one_kernel_pass(monkeypatch):
    shapes = []  # the block each ScaledCost kernel pass evaluates

    def shifted_exp(x):
        shapes.append(x.shape)
        return kernel(x)

    kernel = cost_module._shifted_exp
    monkeypatch.setattr(cost_module, "_shifted_exp", shifted_exp)
    session = _noisy_session(0)
    assert shapes == [(2,)]  # C(q0) and p_hat
    session.step(np.tile([0.5, -0.25], (7, 1)))  # held: the bundles bought at t = 4, 6, 7
    shapes.clear()
    session.close(0)
    assert shapes == [(6, 2)]  # three sales, the batch state, q_true and q_init
    session = _noisy_session(7)
    shapes.clear()
    session.step(np.array([0.5, -0.25]))  # t = 8 sells three bundles
    # q_hat, the trade, three sales, the buy, q_true and the true state after
    assert shapes == [(8, 2)]
    # a preview of the same bundle prices the state after it plus the 2d + 1
    # unit trades, in one pass (its running sum needs none), and a second
    # preview of no new row makes none
    session = _noisy_session(7)
    shapes.clear()
    for _ in range(2):
        session.preview(np.array([[0.5, -0.25]]), 1)
    assert shapes == [(5, 2)] and session.arrivals == 7
    quote = session.quote
    assert quote.unit_costs.tobytes() == session.cost.cost(quote.q_hat + unit_trades(2)).tobytes()

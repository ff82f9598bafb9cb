"""Cost function: worked values, scaling laws, inversion, dual-route checks."""

import math

import mpmath
import numpy as np
import pytest

from privmarket import InvalidParameterError, ScaledCost

from oracles import ftrl_price, numeric_sensitivity


def test_cost_at_origin_is_log_d():
    assert ScaledCost(d=2, lam=1.0).cost(np.zeros(2)) == pytest.approx(math.log(2), abs=1e-15)
    assert ScaledCost(d=5, lam=1.0).cost(np.zeros(5)) == pytest.approx(math.log(5), abs=1e-15)
    # lam = 0.5 doubles the subsidy
    assert ScaledCost(d=2, lam=0.5).cost(np.zeros(2)) == pytest.approx(2 * math.log(2), abs=1e-15)


def test_trade_cost_worked_values():
    c = ScaledCost(d=2, lam=1.0)
    assert c.trade_cost(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(
        0.6201145069582775, abs=1e-12
    )
    c = ScaledCost(d=2, lam=0.01)
    assert c.trade_cost(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(
        0.5012499947916961, abs=1e-12
    )


def test_overflow_safety_at_extreme_shares():
    c = ScaledCost(d=2, lam=1.0)
    assert c.cost(np.array([1000.0, 0.0])) == pytest.approx(1000.0, abs=1e-9)
    p = c.prices(np.array([1e6, 0.0]))
    assert p[0] == pytest.approx(1.0) and np.isfinite(p).all()
    # extended-precision oracle for a mid-range point
    mpmath.mp.dps = 50
    q = np.array([3.7, -1.2, 0.4])
    oracle = float(mpmath.log(sum(mpmath.exp(x) for x in q)))
    assert ScaledCost(d=3, lam=1.0).cost(q) == pytest.approx(oracle, abs=1e-13)


def test_perspective_scaling_exact():
    base = ScaledCost(d=3, lam=1.0)
    rng = np.random.default_rng(0)
    for lam in (0.5, 0.1, 0.003):
        c = ScaledCost(d=3, lam=lam)
        for _ in range(20):
            q = rng.normal(0, 50, size=3)
            assert c.cost(q) == base.cost(lam * q) / lam  # bitwise identical path


def test_prices_form_distribution_and_match_gradient():
    rng = np.random.default_rng(1)
    for d, lam in ((2, 1.0), (4, 0.2), (3, 0.05)):
        c = ScaledCost(d=d, lam=lam)
        for _ in range(10):
            q = rng.normal(0, 5.0 / lam, size=d)
            p = c.prices(q)
            assert np.all(p > 0) and np.sum(p) == pytest.approx(1.0, abs=1e-12)
            # central-difference gradient of the cost
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                grad = (c.cost(q + e) - c.cost(q - e)) / (2 * h)
                assert grad == pytest.approx(p[j], abs=1e-6)


def test_price_monotonicity_in_own_coordinate():
    c = ScaledCost(d=3, lam=0.3)
    q = np.array([0.5, -1.0, 2.0])
    p0 = c.prices(q)
    p1 = c.prices(q + np.array([1.0, 0.0, 0.0]))
    assert p1[0] > p0[0] and p1[1] < p0[1] and p1[2] < p0[2]


def test_telescoping_and_antisymmetry():
    c = ScaledCost(d=3, lam=0.2)
    rng = np.random.default_rng(2)
    q = np.zeros(3)
    total = 0.0
    trades = [rng.normal(size=3) * 0.3 for _ in range(50)]
    for dq in trades:
        total += c.trade_cost(q, dq)
        q = q + dq
    assert total == pytest.approx(c.cost(q) - c.cost(np.zeros(3)), abs=1e-10)
    q0 = rng.normal(size=3)
    dq = rng.normal(size=3)
    assert c.trade_cost(q0, dq) + c.trade_cost(q0 + dq, -dq) == pytest.approx(0.0, abs=1e-12)


def test_worst_case_loss_scales_inversely():
    assert ScaledCost(d=2, lam=1.0).worst_case_loss() == pytest.approx(math.log(2))
    assert ScaledCost(d=2, lam=0.01).worst_case_loss() == pytest.approx(100 * math.log(2))
    assert ScaledCost(d=6, lam=0.5).worst_case_loss() == pytest.approx(2 * math.log(6))


def test_realized_loss_never_exceeds_bound():
    # adversarial-ish random unit trades, any outcome: payout - collected <= ln(d)/lam
    rng = np.random.default_rng(3)
    for lam in (1.0, 0.25):
        c = ScaledCost(d=2, lam=lam)
        for _ in range(50):
            q = np.zeros(2)
            for _ in range(30):
                dq = np.zeros(2)
                dq[rng.integers(2)] = rng.choice([-1.0, 1.0])
                q = q + dq
            collected = c.cost(q) - c.cost(np.zeros(2))
            worst_payout = float(np.max(q))
            assert worst_payout - collected <= c.worst_case_loss() + 1e-9


def test_invert_prices_worked_and_roundtrip():
    c = ScaledCost(d=2, lam=1.0)
    q = c.invert_prices(np.array([0.8, 0.2]), eta=0.01)
    assert q == pytest.approx([math.log(4), 0.0], abs=1e-12)
    assert c.prices(q) == pytest.approx([0.8, 0.2], abs=1e-12)
    # degenerate price gets clamped to eta then renormalized
    q = c.invert_prices(np.array([1.0, 0.0]), eta=0.01)
    expect = np.array([1.0, 0.01]) / 1.01
    assert c.prices(q) == pytest.approx(expect, abs=1e-12)
    assert q[-1] == 0.0  # canonical form


def test_invert_prices_random_roundtrip():
    rng = np.random.default_rng(4)
    for d, lam in ((3, 0.4), (5, 0.02)):
        c = ScaledCost(d=d, lam=lam)
        for _ in range(20):
            p = rng.dirichlet(np.ones(d) * 2)
            eta = 1e-6
            q = c.invert_prices(p, eta=eta)
            clamped = np.maximum(p, eta)
            clamped = clamped / clamped.sum()
            assert c.prices(q) == pytest.approx(clamped, abs=1e-10)
            assert q[-1] == 0.0


def test_invert_prices_errors():
    c = ScaledCost(d=2, lam=1.0)
    with pytest.raises(InvalidParameterError):
        c.invert_prices(np.array([0.5, 0.5]), eta=0.0)
    with pytest.raises(InvalidParameterError):
        c.invert_prices(np.array([0.5, 0.5]), eta=0.5)  # eta >= 1/d
    with pytest.raises(InvalidParameterError):
        c.invert_prices(np.array([0.6, 0.6]), eta=0.01)  # sums to 1.2
    with pytest.raises(InvalidParameterError):
        c.invert_prices(np.array([1.1, -0.1]), eta=0.01)


def test_constructor_validation():
    with pytest.raises(InvalidParameterError):
        ScaledCost(d=0, lam=1.0)
    with pytest.raises(InvalidParameterError):
        ScaledCost(d=2, lam=0.0)
    with pytest.raises(InvalidParameterError):
        ScaledCost(d=2, lam=1.5)
    with pytest.raises(TypeError):  # log-sum-exp is the only cost; no kind option
        ScaledCost(d=2, lam=1.0, kind="quadratic")


def test_numeric_sensitivity_within_lambda():
    for d, lam in ((2, 1.0), (3, 0.3), (2, 0.01)):
        est = numeric_sensitivity(ScaledCost(d=d, lam=lam), samples=500, seed=7)
        assert est.l1 <= lam * (1 + 1e-6)
        assert est.l2 <= lam * (1 + 1e-6)
        assert est.l1 > 0.0


def test_numeric_sensitivity_grid_oracle_d2():
    # exhaustive grid over states and the extreme l1 perturbations for d = 2
    c = ScaledCost(d=2, lam=1.0)
    worst = 0.0
    for x in np.linspace(-6, 6, 241):
        q = np.array([x, 0.0])
        for u in (np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                  np.array([0.5, -0.5]), np.array([0.0, 1.0])):
            worst = max(worst, float(np.abs(c.prices(q + u) - c.prices(q)).sum()))
    assert worst <= 1.0
    est = numeric_sensitivity(c, samples=1000, seed=0)
    assert est.l1 <= 1.0


def test_ftrl_price_matches_prices():
    rng = np.random.default_rng(5)
    for d, lam in ((2, 1.0), (3, 0.2), (2, 0.05)):
        c = ScaledCost(d=d, lam=lam)
        for _ in range(5):
            q = rng.normal(0, 2.0 / lam, size=d)
            p = ftrl_price(c, q)
            assert p == pytest.approx(c.prices(q), abs=1e-6)
    assert ftrl_price(ScaledCost(d=1, lam=1.0), np.array([2.0])) == pytest.approx([1.0])
    with pytest.raises(InvalidParameterError):
        ftrl_price(ScaledCost(d=2, lam=1.0), np.zeros(2), resolution=2)


def test_shape_validation():
    c = ScaledCost(d=2, lam=1.0)
    with pytest.raises(InvalidParameterError):
        c.cost(np.zeros(3))
    with pytest.raises(InvalidParameterError):
        c.prices(np.zeros(1))

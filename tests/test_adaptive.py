"""Stage doubling: schedule closed forms, inequality report, staged runs."""

import math

import numpy as np
import pytest

from privmarket import (
    Herd,
    InvalidParameterError,
    Ledger,
    MarketParams,
    RandomTrader,
    ScaledCost,
    Stream,
    budget_bound,
    drive_session,
    lambda_star,
    minimal_T,
    open_market,
    run_adaptive,
    stage_schedule,
    transition,
    verify_stage_inequalities,
)


def test_minimal_T_worked_values():
    assert minimal_T(1.0, 5.0) == pytest.approx(23.31261354582211, rel=1e-12)
    assert minimal_T(2.0, 10.0) == pytest.approx(161.53941338663333, rel=1e-12)
    with pytest.raises(InvalidParameterError):
        minimal_T(0.5, 100.0)
    with pytest.raises(InvalidParameterError):
        minimal_T(1.0, 2.0)  # A * D < 5


def test_minimal_T_guarantee_boundary():
    # T >= A (ln TD)^2 for every T at or beyond the minimal horizon
    rng = np.random.default_rng(0)
    for _ in range(200):
        A = float(rng.uniform(1.0, 1000.0))
        D = float(rng.uniform(1.0, 1000.0))
        if A * D < 5.0:
            continue
        t_star = minimal_T(A, D)
        for mult in (1.0, 1.01, 2.0, 50.0):
            T = t_star * mult
            assert T >= A * math.log(T * D) ** 2


def test_stage_schedule_worked_example():
    sch = stage_schedule(math.log(2), 1, 0.1, 0.1, 1.0, max_stages=4)
    assert sch.A_prime == pytest.approx(78.42065147748377, rel=1e-12)
    assert sch.A == pytest.approx(12547.304236397404, rel=1e-12)
    assert sch.D == pytest.approx(40.0)
    assert all(s.fee == 0.1 for s in sch.stages)
    assert sch.stages[0].T == 19456605
    assert sch.stages[0].T == math.ceil(minimal_T(sch.A, sch.D))
    assert [s.T for s in sch.stages] == [19456605 * 4 ** k for k in range(4)]
    for k, stage in enumerate(sch.stages, start=1):
        assert stage.alpha == pytest.approx(0.1 / 2 ** k)
        assert stage.gamma == pytest.approx(0.1 / 2 ** k)
        assert stage.lam == lambda_star(stage.T, stage.alpha, stage.gamma, 1.0, 1)


def test_stage_schedule_override_and_validation():
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=3, t1_override=16)
    assert [s.T for s in sch.stages] == [16, 16, 16]
    assert sch.stages[1].lam == lambda_star(16, 0.05, 0.025, 1.0, 2)
    with pytest.raises(InvalidParameterError):
        stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, t1_override=1)
    with pytest.raises(InvalidParameterError):
        stage_schedule(0.0, 2, 0.2, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        stage_schedule(math.log(2), 2, 1.2, 0.1, 1.0)


def test_budget_bound_worked_value():
    got = budget_bound(math.log(2), 1, 0.1, 0.1, 1.0)
    assert got == pytest.approx(165722.41632441749, rel=1e-12)
    # the budget covers the fee revenue target of the very first stage
    sch = stage_schedule(math.log(2), 1, 0.1, 0.1, 1.0)
    assert got >= (0.1 / 16.0) * sch.stages[0].T
    with pytest.raises(InvalidParameterError):
        budget_bound(math.log(2), 0, 0.1, 0.1, 1.0)


def test_stage_inequality_report():
    sch = stage_schedule(math.log(2), 1, 0.1, 0.1, 1.0, max_stages=8)
    rep = verify_stage_inequalities(sch)
    assert rep.all_ok
    assert rep.stage1_log_ok
    assert rep.stage1_log_value == pytest.approx(0.166577930376763, rel=1e-9)
    assert rep.first_lam_ratio_k == 2
    for check in rep.checks:
        assert check.subsidy_covered and check.profit_ok and check.lam_ratio_ok
        assert check.profit_bracket >= 0.5

    # a desk-scale override is too small to cover its subsidy; the report
    # must say so rather than blow up
    flat = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=3, t1_override=16)
    rep = verify_stage_inequalities(flat)
    assert not rep.checks[0].subsidy_covered
    assert not rep.all_ok

    rep = verify_stage_inequalities(stage_schedule(math.log(2), 1, 0.1, 0.1, 1.0, max_stages=2))
    assert len(rep.checks) == 2
    with pytest.raises(InvalidParameterError):
        verify_stage_inequalities(sch._replace(stages=()))


def test_transition_worked_and_clamped():
    q = transition(np.array([0.8, 0.2]), next_lam=1.0, d=2, eta=0.01)
    assert q == pytest.approx([math.log(4.0), 0.0], abs=1e-12)
    cost = ScaledCost(d=2, lam=1.0)
    assert cost.prices(q) == pytest.approx([0.8, 0.2], abs=1e-12)
    # a degenerate handoff price is clamped to eta before inversion
    q = transition(np.array([1.0 - 1e-15, 1e-15]), next_lam=0.5, d=2, eta=0.01)
    p = ScaledCost(d=2, lam=0.5).prices(q)
    assert p == pytest.approx(np.array([1.0, 0.01]) / 1.01, abs=1e-9)


def _herd_stream(n):
    return Stream((Herd(),), n)


def test_run_adaptive_three_full_stages():
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=8, t1_override=16)
    result = run_adaptive(sch.stages, _herd_stream(48), outcome=0, seed=1)
    assert [s.arrivals for s in result.stages] == [16, 16, 16]
    assert all(s.is_full for s in result.stages)
    # the global ledger is the exact component-wise sum of the stage ledgers
    again = Ledger.combine([s.ledger for s in result.stages])
    assert result.ledger == again
    # handed-off prices reopen unchanged (no clamping at desk scale)
    for prev, nxt in zip(result.stages, result.stages[1:]):
        assert nxt.cost.prices(nxt.q_init) == pytest.approx(prev.p_hat, abs=1e-9)
    # per-stage accuracy budgets stay inside the global one
    spent = sum(s.params.alpha for s in result.stages)
    assert spent <= 0.2 + 1e-12


def test_run_adaptive_stream_boundaries():
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=8, t1_override=16)
    # dries mid-stage: final stage is partial
    result = run_adaptive(sch.stages, _herd_stream(40), outcome=0, seed=2)
    assert [s.arrivals for s in result.stages] == [16, 16, 8]
    assert [s.is_full for s in result.stages] == [True, True, False]
    # dries exactly at a boundary: no empty trailing stage is opened
    result = run_adaptive(sch.stages, _herd_stream(32), outcome=0, seed=2)
    assert [s.arrivals for s in result.stages] == [16, 16]
    # empty stream: one stage, zero arrivals
    result = run_adaptive(sch.stages, _herd_stream(0), outcome=0, seed=2)
    assert [s.arrivals for s in result.stages] == [0]
    assert result.ledger.arrivals == 0
    # longer than total capacity: capped at max_stages
    sch3 = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=3, t1_override=16)
    result = run_adaptive(sch3.stages, _herd_stream(200), outcome=0, seed=2)
    assert [s.arrivals for s in result.stages] == [16, 16, 16]


def test_run_adaptive_stage_override_rebuild():
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=8)
    assert sch.stages[0].T == 9728303
    # a desk-scale override is a schedule rebuilt with t1_override
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=8, t1_override=10)
    result = run_adaptive(sch.stages, _herd_stream(20), outcome=0, seed=3)
    assert [s.arrivals for s in result.stages] == [10, 10]


def test_run_adaptive_deterministic():
    sch = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=4, t1_override=8)

    def stream():
        return Stream((RandomTrader(np.random.default_rng(9)),), 20)

    a = run_adaptive(sch.stages, stream(), outcome=1, seed=7)
    b = run_adaptive(sch.stages, stream(), outcome=1, seed=7)
    assert a.ledger == b.ledger
    for sa, sb in zip(a.stages, b.stages):
        assert sa.ledger == sb.ledger
        assert np.array_equal(sa.p_hat, sb.p_hat)
    c = run_adaptive(sch.stages, stream(), outcome=1, seed=8)
    assert c.ledger != a.ledger  # the noise actually moved


def test_composed_precision_against_noiseless_twin():
    # replay the same stage structure and trades with noise_off and compare
    # published prices arrival by arrival; the composed gap stays far inside
    # the global accuracy budget at desk scale
    alpha = 0.2
    sch = stage_schedule(math.log(2), 2, alpha, 0.1, 1.0, max_stages=3, t1_override=16)
    worst = 0.0
    for seed in range(30):
        noisy_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        gaps = []
        init_noisy = None
        init_true = None
        for i, stage in enumerate(sch.stages):
            def mk(off, init):
                return open_market(
                    MarketParams(d=2, epsilon=1.0, alpha=stage.alpha,
                                 gamma=stage.gamma, T=stage.T, fee=alpha,
                                 lam=stage.lam, noise_off=off),
                    rng=noisy_rng if not off else 0,
                    initial_shares=init,
                )
            noisy = mk(False, init_noisy)
            true = mk(True, init_true)
            herd = Herd()
            for _ in range(stage.T):
                drive_session(noisy, Stream((herd,), 1))
                drive_session(true, Stream((herd,), 1))
                gaps.append(float(np.sum(np.abs(noisy.p_hat - true.p_hat))))
            if i + 1 < len(sch.stages):
                nxt = sch.stages[i + 1]
                eta = nxt.alpha / (4.0 * 2)
                init_noisy = transition(noisy.p_hat, nxt.lam, 2, eta)
                init_true = transition(true.p_hat, nxt.lam, 2, eta)
        worst = max(worst, max(gaps))
    assert worst <= alpha

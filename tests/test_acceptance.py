"""End-to-end acceptance suite.

Each test covers one advertised guarantee at desk scale and prints a single
machine-greppable [PASS]/[FAIL] line with the observed numbers; capture is
suspended per test so the lines land in the terminal run log.  Statistical
checks use 3-standard-error tolerances; combinatorial and formula checks
demand zero violations.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from privmarket import (
    Herd,
    Ledger,
    RandomTrader,
    RunConfig,
    ScaledCost,
    NoiseLedger,
    Stream,
    budget_bound,
    lambda_star,
    maximize_profit,
    minimal_T,
    privacy_audit,
    run_adaptive,
    run_trials,
    stage_schedule,
    verify_budget,
    verify_noise_loss,
    verify_precision,
    verify_share_accuracy,
    verify_stage_inequalities,
)
from privmarket.traders import StrategyContext, best_response

from oracles import ftrl_price, held_pairs, low_bit, noise_path_sum, participation_count

MARKET = {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 64}
SEEDS = 500


@pytest.fixture
def report(capsys):
    """Emit one [PASS]/[FAIL] line per check on the live terminal."""

    def _report(name: str, ok: bool, detail: str) -> bool:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[{status}] {name}: {detail}", flush=True)
        return ok

    return _report


def _run_rows(roster, fee=None, seeds=SEEDS):
    market = dict(MARKET)
    if fee is not None:
        market["fee"] = fee
    cfg = RunConfig.from_dict(
        {"market": market, "traders": roster, "seeds": {"count": seeds}}
    )
    metrics = run_trials(cfg)
    return cfg, [m.to_dict() for m in metrics]


MIXED_ROSTER = [
    {"kind": "herd"},
    {"kind": "random"},
    {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15]}},
]


@pytest.fixture(scope="module")
def mixed_run():
    start = time.monotonic()
    cfg, rows = _run_rows(MIXED_ROSTER)
    return {"cfg": cfg, "rows": rows, "elapsed": time.monotonic() - start}


def test_price_sensitivity_formula(report):
    got = lambda_star(16, 0.1, 0.1, 1.0, 1)
    independent = 0.1 / (4.0 * math.sqrt(2.0) * 4.0 * math.log(320.0))
    ok = abs(got - independent) <= 1e-9
    assert report(
        "acceptance 01 sensitivity formula",
        ok,
        f"lambda_star = {got:.12e}, independent arithmetic {independent:.12e}",
    )


def test_schedule_combinatorics_exhaustive(report):
    # drives NoiseLedger's per-arrival reference methods (begin_step,
    # mark_sold, new_bundle), which no production path calls: its sell count
    # and held stack are checked against the bits of t.  The production path,
    # block plans booked through advance, is swept to 2^14 in test_block.py
    start = time.monotonic()
    rng = np.random.default_rng(0)
    ledger = NoiseLedger(d=1, scale=1.0, T=2 ** 14)
    sold_at: dict[int, int] = {}
    values: dict[int, float] = {}
    running = 0.0
    violations = 0
    horizon = 2 ** 14
    for t in range(1, horizon + 1):
        n_sells = ledger.begin_step()
        if ledger.t != t or n_sells != low_bit(t).bit_length() - 1:
            violations += 1
        for _ in range(n_sells):
            s = held_pairs(ledger)[-1][0]
            if s in sold_at or t - s != low_bit(s):
                violations += 1
            ledger.mark_sold()
            sold_at[s] = t
            running -= values[s]
        values[t] = float(rng.normal())
        ledger.new_bundle(np.array([values[t]]))
        held = {u for u, _ in held_pairs(ledger)}
        running += values[t]
        # held set == one-bit prefixes of the counter
        expect = set()
        rem = t
        while rem:
            expect.add(rem)
            rem &= rem - 1
        if held != expect:
            violations += 1
        if abs(running - float(noise_path_sum(t, values))) > 1e-6:
            violations += 1
    # full pairing: everything except the final held stack sold exactly once
    if set(values) - held != set(sold_at):
        violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 5.0
    assert report(
        "acceptance 02 schedule combinatorics",
        ok,
        f"t <= {horizon}, violations = {violations}, elapsed = {elapsed:.2f}s (< 5s)",
    )


def test_privacy_audit_structural(report):
    worst = 0.0
    ok = True
    for T in (8, 16, 64):
        audit = privacy_audit(T=T, d=2, epsilon=1.0, n_pairs=10_000)
        worst = max(worst, audit.sensitivity_max)
        cap = int(math.floor(math.log2(T))) + 1
        counts_exact = audit.participation_counts == tuple(
            participation_count(tp, T) for tp in range(1, T + 1)
        )
        scale_exact = audit.noise_scale == 2.0 * audit.depth / 1.0
        ok = ok and audit.sensitivity_ok and counts_exact and scale_exact
        ok = ok and audit.participation_max <= cap and audit.passed
    assert report(
        "acceptance 03 privacy audit",
        ok,
        f"T in (8, 16, 64), worst l1 sensitivity = {worst:.6f} (<= 2)",
    )


def test_price_precision_monte_carlo(mixed_run, report):
    rows, cfg = mixed_run["rows"], mixed_run["cfg"]
    verdict = verify_precision(rows, alpha=cfg.alpha, gamma=cfg.gamma)
    ok = verdict.passed and mixed_run["elapsed"] < 60.0
    assert report(
        "acceptance 04 price precision",
        ok,
        f"exceedance {verdict.observed:.4f} <= {verdict.threshold:.4f} "
        f"(n = {verdict.n}, elapsed = {mixed_run['elapsed']:.1f}s < 60s)",
    )


def test_share_accuracy_monte_carlo(mixed_run, report):
    rows, cfg = mixed_run["rows"], mixed_run["cfg"]
    verdict = verify_share_accuracy(
        rows, d=cfg.d, T=cfg.T, epsilon=cfg.epsilon, gamma=cfg.gamma
    )
    assert report(
        "acceptance 05 share accuracy",
        verdict.passed,
        f"exceedance {verdict.observed:.4f} <= {verdict.threshold:.4f} "
        f"(bound {verdict.detail['bound']:.1f})",
    )


ROSTERS = {
    "arbitrage_hunter": [
        {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15]}}
    ],
    "herd": [{"kind": "herd"}],
    "belief": [{"kind": "belief", "params": {"belief": [0.9, 0.1]}}],
    "random": [{"kind": "random"}],
}


def test_budget_per_roster(report):
    ok = True
    details = []
    for name, roster in ROSTERS.items():
        cfg, rows = _run_rows(roster)
        params = cfg.market_params()
        budget = verify_budget(rows, B1=params.B1, lam=params.lam)
        k_emp = float(np.mean([r["mean_bundle_l2"] for r in rows]))
        noise = verify_noise_loss(rows, lam=params.lam, K=k_emp)
        ok = ok and budget.passed and noise.passed
        details.append(
            f"{name}: loss {budget.observed:.2f} <= {budget.threshold:.2f}, "
            f"ntl {noise.observed:.3f} <= {noise.threshold:.3f}"
        )
    assert report("acceptance 06 budget per roster", ok, "; ".join(details))


def test_fee_necessity(report):
    roster = [
        {"kind": "herd"},
        {"kind": "random"},
        {"kind": "arbitrage_hunter", "params": {"belief": [0.5, 0.5]}},
    ]
    _, paid = _run_rows(roster)  # fee defaults to alpha
    _, free = _run_rows(roster, fee=0.0)
    diffs = np.array(
        [f["designer_loss"] - p["designer_loss"] for f, p in zip(free, paid)]
    )
    mean = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1) / math.sqrt(len(diffs)))
    ok = mean >= 3.0 * se and mean > 0.0
    assert report(
        "acceptance 07 fee necessity",
        ok,
        f"designer loss rises by {mean:.3f} without the fee (3 SE = {3 * se:.3f})",
    )


def test_mispricing_profit_property(report):
    rng = np.random.default_rng(1)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.02, 0.2))
        lam = alpha * float(rng.uniform(0.05, 0.95))
        cost = ScaledCost(d=d, lam=lam)
        q_hat = rng.normal(0.0, 0.5 / lam, size=d)
        p_hat = cost.prices(q_hat)
        ctx = StrategyContext(t=1, q_hat=q_hat, p_hat=p_hat, fee=alpha, cost=cost)
        delta = 2.0 * alpha * 1.01
        j = int(np.argmax(np.minimum(1.0 - p_hat, p_hat)))
        belief = p_hat.copy()
        if p_hat[j] + delta <= 0.98:
            belief[j] += delta
        else:
            belief[j] -= delta
        belief[np.arange(d) != j] *= (1.0 - belief[j]) / (1.0 - p_hat[j])
        gap = float(np.max(np.abs(belief - p_hat)))
        dq, profit = maximize_profit(ctx, belief)
        if not (
            gap >= 2.0 * alpha - 1e-12
            and profit >= gap - lam - 1e-9
            and profit > alpha
            and best_response(ctx, belief) is not None
        ):
            violations += 1
    assert report(
        "acceptance 08 mispricing profit floor",
        violations == 0,
        f"1000 random instances, violations = {violations}",
    )


def test_stage_formula_suite(report):
    # (i) first stage size matches the closed form
    sch = stage_schedule(math.log(2), 1, 0.1, 0.1, 1.0)
    target = math.ceil(9.0 * sch.A * math.log(sch.A * sch.D) ** 2)
    size_ok = abs(sch.stages[0].T - target) <= 1

    # (ii) stage inequalities for k <= 20 across the parameter grid
    grid_ok = True
    budget_ok = True
    for alpha, gamma, eps, d in product(
        (0.05, 0.1, 0.2), (0.05, 0.1), (0.5, 1.0), (1, 2)
    ):
        g = stage_schedule(math.log(2), d, alpha, gamma, eps, max_stages=20)
        rep = verify_stage_inequalities(g)
        grid_ok = grid_ok and rep.all_ok
        bound = budget_bound(math.log(2), d, alpha, gamma, eps)
        budget_ok = budget_ok and bound >= (alpha / 16.0) * g.stages[0].T

    # (iii) minimal horizon guarantee on a random grid
    rng = np.random.default_rng(2)
    prop_ok = True
    pairs = 0
    while pairs < 100:
        A = float(rng.uniform(1.0, 1000.0))
        D = float(rng.uniform(1.0, 1000.0))
        if A * D < 5.0:
            continue
        pairs += 1
        t_star = minimal_T(A, D)
        for T in np.geomspace(t_star, 1000.0 * t_star, 20):
            prop_ok = prop_ok and T >= A * math.log(T * D) ** 2

    ok = size_ok and grid_ok and budget_ok and prop_ok
    assert report(
        "acceptance 09 stage formulas",
        ok,
        f"T1 = {sch.stages[0].T} (target {target}), 24-point grid k<=20 "
        f"{'ok' if grid_ok else 'FAIL'}, budget covers stage 1 "
        f"{'ok' if budget_ok else 'FAIL'}, 100x20 horizon property "
        f"{'ok' if prop_ok else 'FAIL'}",
    )


def test_adaptive_accounting(report):
    sch = stage_schedule(math.log(2), 2, 0.3, 0.1, 1.0, max_stages=3, t1_override=16)
    worst_handoff = 0.0
    ok = True
    for seed in range(SEEDS):
        children = np.random.SeedSequence(seed).spawn(2)
        herd = Herd()
        rnd = RandomTrader(np.random.default_rng(children[1]))
        result = run_adaptive(
            sch.stages, Stream((herd, rnd), 48), outcome=0, seed=np.random.default_rng(children[0])
        )
        ok = ok and [s.arrivals for s in result.stages] == [16, 16, 16]
        resum = Ledger.combine([s.ledger for s in result.stages])
        ok = ok and result.ledger == resum  # exact, field by field
        spent = sum(stage.alpha for stage in sch.stages)
        ok = ok and spent <= 0.3 + 1e-15
        for prev, nxt in zip(result.stages, result.stages[1:]):
            gap = float(np.max(np.abs(nxt.cost.prices(nxt.q_init) - prev.p_hat)))
            worst_handoff = max(worst_handoff, gap)
        ok = ok and worst_handoff <= 1e-9
    assert report(
        "acceptance 10 staged accounting",
        ok,
        f"{SEEDS} seeds x 3 stages, ledgers sum exactly, "
        f"worst handoff gap = {worst_handoff:.2e} (<= 1e-9)",
    )


def test_cost_function_suite(report):
    rng = np.random.default_rng(3)

    # gradient of the cost equals the price vector
    grad_worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        lam = float(rng.uniform(0.01, 1.0))
        cost = ScaledCost(d=d, lam=lam)
        q = rng.normal(0.0, 3.0 / lam, size=d)
        p = cost.prices(q)
        h = 1e-5
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            grad = (cost.cost(q + e) - cost.cost(q - e)) / (2.0 * h)
            grad_worst = max(grad_worst, abs(grad - p[j]))
    grad_ok = grad_worst <= 1e-6

    # exhaustive unit-trade sequences never cost the maker more than the bound
    loss_worst = 0.0
    moves = (
        np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
        np.array([0.0, 1.0]), np.array([0.0, -1.0]),
    )
    for lam in (1.0, 0.25):
        cost = ScaledCost(d=2, lam=lam)
        bound = cost.worst_case_loss()
        states = [np.zeros(2)]
        for _ in range(6):
            states = [q + m for q in states for m in moves]
            for q in states:
                loss = float(np.max(q)) - (cost.cost(q) - cost.cost(np.zeros(2)))
                loss_worst = max(loss_worst, loss - bound)
    loss_ok = loss_worst <= 1e-12

    # grid-search price recovery agrees with the closed form
    ftrl_worst = 0.0
    for _ in range(30):
        d = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.05, 1.0))
        cost = ScaledCost(d=d, lam=lam)
        q = rng.normal(0.0, 2.0 / lam, size=d)
        ftrl_worst = max(
            ftrl_worst, float(np.max(np.abs(ftrl_price(cost, q) - cost.prices(q))))
        )
    ftrl_ok = ftrl_worst <= 1e-6

    ok = grad_ok and loss_ok and ftrl_ok
    assert report(
        "acceptance 11 cost function suite",
        ok,
        f"gradient gap {grad_worst:.2e} (<= 1e-6), loss-bound slack "
        f"{loss_worst:.2e} (<= 0), equivalence gap {ftrl_worst:.2e} (<= 1e-6)",
    )

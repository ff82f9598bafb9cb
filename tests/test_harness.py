"""Config validation, deterministic trials, output files, verifiers, audit, CLI."""

import copy
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    Abstainer,
    BeliefTrader,
    ConfigError,
    Herd,
    InsufficientDataError,
    InvalidParameterError,
    RandomTrader,
    RunConfig,
    Stream,
    TrialMetrics,
    lambda_star,
    load_metrics,
    privacy_audit,
    run_trial,
    run_trials,
    summarize_csv,
    verify_budget,
    verify_noise_loss,
    verify_precision,
    verify_share_accuracy,
)
from privmarket import harness
from privmarket.adaptive import MAX_STAGES, stage_schedule
from privmarket.cli import _parse_seed_range
from privmarket.cli import main as cli_main
from privmarket.harness import (
    AUDIT_ENTRIES,
    AUDIT_SAMPLED,
    MAX_D,
    MAX_SEEDS,
    MAX_T,
    MAX_TRADERS,
)

from oracles import fresh_draw_sensitivity, participation_count, reference_sensitivity


BASE = {
    "market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 8},
    "traders": [{"kind": "herd"}],
    "seeds": {"count": 4},
}


def _cfg(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return RunConfig.from_dict(raw)


def test_config_happy_path():
    cfg = _cfg()
    assert cfg.d == 2 and cfg.T == 8 and cfg.seeds_count == 4
    assert cfg.traders[0].kind == "herd" and cfg.traders[0].count == 1
    params = cfg.market_params()
    assert params.fee == 0.3 and params.lam == params.lam_star
    resolved = cfg.resolved()
    assert resolved["lambda"] == params.lam
    assert resolved["B1"] == pytest.approx(math.log(2))
    assert resolved["seeds"] == {"start": 0, "count": 4}


def test_config_unknown_fields_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown config fields.*budget"):
        _cfg(budget=10)
    raw = json.loads(json.dumps(BASE))
    raw["market"]["spread"] = 0.1
    with pytest.raises(ConfigError, match="unknown market fields.*spread"):
        RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["traders"][0]["speed"] = 2
    with pytest.raises(ConfigError, match=r"unknown traders\[0\] fields.*speed"):
        RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["seeds"]["stride"] = 2
    with pytest.raises(ConfigError, match="unknown seeds fields.*stride"):
        RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["adaptive"] = {"enabled": True, "warp": 9}
    with pytest.raises(ConfigError, match="unknown adaptive fields.*warp"):
        RunConfig.from_dict(raw)


def test_config_required_and_types():
    raw = json.loads(json.dumps(BASE))
    del raw["market"]["T"]
    with pytest.raises(ConfigError, match="missing required field 'T'"):
        RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["market"]["T"] = True  # bools are not integers here
    with pytest.raises(ConfigError, match="market.T must be an integer"):
        RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["market"]["alpha"] = "0.3"
    with pytest.raises(ConfigError, match="market.alpha must be a number"):
        RunConfig.from_dict(raw)
    with pytest.raises(ConfigError, match="'traders' must be a non-empty list"):
        _cfg(traders=[])
    with pytest.raises(ConfigError, match="not in"):
        _cfg(traders=[{"kind": "momentum"}])
    with pytest.raises(ConfigError, match="count must be >= 1"):
        _cfg(traders=[{"kind": "herd", "count": 0}])
    with pytest.raises(ConfigError, match="arrival_order"):
        _cfg(arrival_order="shuffled")
    with pytest.raises(ConfigError, match="outcome"):
        _cfg(outcome=5)
    with pytest.raises(ConfigError):
        RunConfig.from_json("{not json")


def test_config_booleans_are_strict():
    for section, name, value in (
        ("market", "noise_off", "false"),
        ("market", "noise_off", 0),
        ("market", "allow_unsafe_lambda", "true"),
        ("adaptive", "enabled", 1),
        ("adaptive", "enabled", "false"),
    ):
        raw = json.loads(json.dumps(BASE))
        raw.setdefault(section, {})[name] = value
        with pytest.raises(ConfigError, match=f"{section}.{name} must be true or false"):
            RunConfig.from_dict(raw)
    raw = json.loads(json.dumps(BASE))
    raw["market"]["noise_off"] = False
    raw["adaptive"] = {"enabled": False}
    cfg = RunConfig.from_dict(raw)
    assert cfg.noise_off is False and cfg.adaptive is False


def test_config_numbers_finite_and_stream_length_positive():
    for name in ("fee", "epsilon", "alpha", "lambda"):
        for bad in (math.nan, math.inf, -math.inf):
            raw = json.loads(json.dumps(BASE))
            raw["market"][name] = bad
            with pytest.raises(ConfigError, match=f"market.{name} must be finite"):
                RunConfig.from_dict(raw)
    # the JSON text form reaches the same check
    text = json.dumps(BASE).replace('"alpha": 0.3', '"alpha": 0.3, "fee": NaN')
    with pytest.raises(ConfigError, match="market.fee must be finite"):
        RunConfig.from_json(text)
    for bad in (-5, 0):
        with pytest.raises(ConfigError, match="stream_length must be >= 1"):
            _cfg(stream_length=bad)
    assert _cfg(stream_length=1).stream_length == 1


# the flat market of this config sits at lambda = 0.9
STAGE_LAMBDA_MARKET = {"d": 2, "epsilon": 0.9 / lambda_star(2**20, 0.3, 0.1, 1.0, 2),
                       "alpha": 0.3, "gamma": 0.1, "T": 2**20}

BAD_ENTRIES = {
    "trader entry not an object": {"traders": ["herd"]},
    "seeds not an object": {"seeds": [0, 4]},
    "adaptive not an object": {"adaptive": "on"},
    # a flat config still writes max_stages into resolved_config.json
    "max_stages negative in a flat config": {"adaptive": {"enabled": False, "max_stages": -5}},
    "max_stages of 10**30 in a flat config": {
        "adaptive": {"enabled": False, "max_stages": 10**30}
    },
    "d in trader params": {"traders": [{"kind": "herd", "params": {"d": 5}}]},
    "herd coordinate past d": {"traders": [{"kind": "herd", "params": {"coordinate": 5}}]},
    "herd coordinate negative": {
        "traders": [{"kind": "herd", "params": {"coordinate": -1}}]
    },
    "herd coordinate not an integer": {
        "traders": [{"kind": "herd", "params": {"coordinate": 0.5}}]
    },
    "hunter threshold not a number": {
        "traders": [{"kind": "arbitrage_hunter", "params": {"threshold": "x"}}]
    },
    "belief of the wrong length": {
        "traders": [{"kind": "belief", "params": {"belief": [0.5, 0.25, 0.25]}}]
    },
    "belief with nan": {
        "traders": [{"kind": "arbitrage_hunter", "params": {"belief": [math.nan, 1.0]}}]
    },
    "belief not numbers": {"traders": [{"kind": "belief", "params": {"belief": "ab"}}]},
    # trader params parse as market fields do: no strings, no booleans
    "belief of strings": {"traders": [{"kind": "belief", "params": {"belief": ["0.5", "0.5"]}}]},
    "belief of booleans": {"traders": [{"kind": "belief", "params": {"belief": [True, False]}}]},
    "belief with a string entry": {
        "traders": [{"kind": "belief", "params": {"belief": ["1e0", 0]}}]
    },
    "hunter threshold past float range": {
        "traders": [{"kind": "arbitrage_hunter", "params": {"threshold": 10**400}}]
    },
    "seeds start negative": {"seeds": {"start": -3, "count": 2}},
    "seeds count past the cap": {"seeds": {"count": MAX_SEEDS + 1}},
    "roster total past the cap": {
        "traders": [{"kind": "herd", "count": MAX_TRADERS}, {"kind": "random"}]
    },
    # stage 1 (T = 2, alpha and gamma halved) needs a lambda far above 1
    "stage lambda above 1": {"market": STAGE_LAMBDA_MARKET, "adaptive": {"stage_override": 2}},
    # a trial steps until its horizon fills: these would run for ever
    "market T past the cap": {"market": dict(BASE["market"], T=MAX_T + 1)},
    "market T of 2**62": {"market": dict(BASE["market"], T=2**62)},
    "stage_override past the cap": {"adaptive": {"stage_override": MAX_T + 1}},
    # stages of 1.8e14, 7.2e14 and 2.9e15 arrivals
    "stage plan past the cap": {"market": dict(BASE["market"], alpha=1e-4), "adaptive": {}},
    # an abstainer-only roster never fills a market, so its stream would
    # run for ever
    "stream_length past the cap": {"traders": [{"kind": "abstainer"}], "stream_length": 10**18},
    # lambda 6.4e-309 is subnormal, and bundles of scale 4e306 overflow their l2 norms
    "lambda below the smallest normal float": {
        "market": {"d": 2, "epsilon": 1e-306, "alpha": 0.5, "gamma": 0.5, "T": 4}
    },
}


@pytest.mark.parametrize("overrides", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_malformed_entries_and_params_are_config_errors(overrides, tmp_path, capsys):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_trader_param_errors_name_the_entry():
    for params, message in (
        ({"belief": ["0.5", "0.5"]}, r"traders\[0\]: belief\[0\] must be a number"),
        ({"threshold": 10**400}, r"traders\[0\]: threshold must be finite"),
        ({"coordinate": 2}, r"traders\[0\]: coordinate must be <= 1"),
    ):
        kind = "herd" if "coordinate" in params else "arbitrage_hunter"
        with pytest.raises(ConfigError, match=message):
            _cfg(traders=[{"kind": kind, "params": params}])


def test_staged_config_is_checked_as_its_stage_plan():
    # the flat market at T = 2 would need lambda above 1, but a staged run
    # runs only its two stages of 16 arrivals
    raw = {"market": {"d": 2, "epsilon": 500, "alpha": 0.3, "gamma": 0.1, "T": 2},
           "traders": [{"kind": "herd"}], "adaptive": {"stage_override": 16, "max_stages": 2}}
    with pytest.raises(ConfigError, match=r"market: lam must lie in \(0, 1\]"):
        RunConfig.from_dict({**raw, "adaptive": {"enabled": False}})
    cfg = RunConfig.from_dict(raw)
    assert cfg.markets() == cfg.schedule().stages
    assert [m.T for m in cfg.markets()] == [16, 16]
    assert [m.lam for m in cfg.markets()] == pytest.approx([0.2316, 0.1056], abs=1e-4)
    m = run_trial(cfg, 0)
    assert (m.arrivals, m.stages_completed) == (32, 2)
    resolved = cfg.resolved()
    assert "stages" in resolved and "T" not in resolved


def test_config_lambda_guard():
    raw = json.loads(json.dumps(BASE))
    raw["market"]["lambda"] = 0.5
    with pytest.raises(ConfigError, match="lambda_star"):
        RunConfig.from_dict(raw)
    raw["market"]["allow_unsafe_lambda"] = True
    cfg = RunConfig.from_dict(raw)
    assert cfg.market_params().lam == 0.5
    # every stage of a plan is checked at load, not only the flat market
    assert _cfg(market=STAGE_LAMBDA_MARKET).market_params().lam == pytest.approx(0.9)
    with pytest.raises(ConfigError, match=r"adaptive: lam must lie in \(0, 1\]"):
        _cfg(market=STAGE_LAMBDA_MARKET, adaptive={"stage_override": 2})


def test_config_adaptive_needs_d2():
    raw = json.loads(json.dumps(BASE))
    raw["market"]["d"] = 1
    raw["adaptive"] = {"enabled": True, "stage_override": 8}
    with pytest.raises(ConfigError, match="d >= 2"):
        RunConfig.from_dict(raw)


def test_run_trial_deterministic():
    cfg = _cfg(traders=[{"kind": "random"}, {"kind": "belief",
                                             "params": {"belief": [0.9, 0.1]}}])
    a = run_trial(cfg, seed=3)
    b = run_trial(cfg, seed=3)
    assert a == b
    c = run_trial(cfg, seed=4)
    assert c != a


def test_fee_change_leaves_randomness_untouched():
    # the fee must alter cash flows only: same seeds, same noise, same trades
    raw_low = json.loads(json.dumps(BASE))
    raw_low["market"]["fee"] = 0.01
    raw_low["traders"] = [{"kind": "random"}]
    raw_high = json.loads(json.dumps(raw_low))
    raw_high["market"]["fee"] = 0.02
    low = RunConfig.from_dict(raw_low)
    high = RunConfig.from_dict(raw_high)
    for seed in range(5):
        a = run_trial(low, seed)
        b = run_trial(high, seed)
        assert a.mean_bundle_l2 == b.mean_bundle_l2
        assert a.max_share_gap == b.max_share_gap
        assert a.ntl == b.ntl
        assert a.mm_loss == b.mm_loss
        assert b.fees - a.fees == pytest.approx(0.01 * a.arrivals, abs=1e-12)


def test_adaptive_trial_metrics():
    raw = json.loads(json.dumps(BASE))
    raw["adaptive"] = {"enabled": True, "stage_override": 8, "max_stages": 3}
    raw["traders"] = [{"kind": "herd"}]
    cfg = RunConfig.from_dict(raw)
    m = run_trial(cfg, seed=0)
    assert m.arrivals == 24
    assert m.stages_completed == 3
    assert m.mean_bundle_l2 > 0.0


def test_run_trials_writes_stable_outputs(tmp_path):
    cfg = _cfg(traders=[{"kind": "random"}])
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_trials(cfg, out_dir=str(out_a))
    run_trials(cfg, out_dir=str(out_b), parallel=2)
    bytes_a = (out_a / "metrics.jsonl").read_bytes()
    assert bytes_a == (out_b / "metrics.jsonl").read_bytes()
    assert b"\r" not in bytes_a

    rows = load_metrics(str(out_a))
    assert [r["seed"] for r in rows] == [0, 1, 2, 3]
    rebuilt = [TrialMetrics(**r) for r in rows]
    assert summarize_csv(rebuilt) == (out_a / "summary.csv").read_text(encoding="utf-8")
    resolved = json.loads((out_a / "resolved_config.json").read_text(encoding="utf-8"))
    assert resolved["T"] == 8 and resolved["fee"] == 0.3

    csv_text = (out_a / "summary.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0] == "metric,n,mean,se,min,max"
    assert "designer_loss" in csv_text


def _rows(gaps=None, losses=None, n=200):
    rows = []
    for i in range(n):
        rows.append(
            {
                "seed": i,
                "arrivals": 16,
                "stages_completed": 1,
                "designer_loss": 0.0 if losses is None else losses[i],
                "mm_loss": 0.0,
                "ntl": 0.0,
                "fees": 0.0,
                "max_price_gap": 0.0 if gaps is None else gaps[i],
                "max_share_gap": 0.0,
                "mean_bundle_l2": 1.0,
            }
        )
    return rows


def test_verify_precision_directional():
    passing = _rows(gaps=[0.05] * 200)
    report = verify_precision(passing, alpha=0.3, gamma=0.1)
    assert report.passed and report.observed == 0.0
    failing = _rows(gaps=[0.5] * 100 + [0.05] * 100)
    report = verify_precision(failing, alpha=0.3, gamma=0.1)
    assert not report.passed and report.observed == 0.5
    with pytest.raises(InsufficientDataError):
        verify_precision(_rows(n=99), alpha=0.3, gamma=0.1)


def test_verify_budget_directional():
    report = verify_budget(_rows(losses=[1.0] * 200), B1=math.log(2), lam=0.001)
    assert report.passed
    report = verify_budget(_rows(losses=[1000.0] * 199 + [1001.0]), B1=math.log(2), lam=0.001)
    assert not report.passed  # bound ~693 and se ~0
    with pytest.raises(InsufficientDataError):
        verify_budget(_rows(n=5), B1=1.0, lam=0.1)


def test_verify_share_accuracy_and_noise_loss():
    rows = _rows()
    report = verify_share_accuracy(rows, d=2, T=16, epsilon=1.0, gamma=0.1)
    assert report.passed
    assert report.detail["bound"] == pytest.approx(
        4.0 * math.sqrt(2.0) * 2 * 4 * math.log(2.0 * 16 * 2 / 0.1), rel=1e-12
    )
    report = verify_noise_loss(rows, lam=0.001, K=16.0)
    assert report.passed
    # single-arrival rows contribute a zero bound and must not crash on log2
    one = [dict(r, arrivals=1) for r in rows]
    report = verify_noise_loss(one, lam=0.001, K=16.0)
    assert report.threshold == pytest.approx(0.0)
    with pytest.raises(InsufficientDataError):
        verify_noise_loss(rows[:50], lam=0.001, K=16.0)


def test_privacy_audit_worked_example():
    report = privacy_audit(T=8, d=2, epsilon=1.0, n_pairs=2000)
    assert report.sensitivity_ok and report.sensitivity_max <= 2.0 + 1e-9
    assert report.participation_counts == tuple(
        participation_count(tp, 8) for tp in range(1, 9)
    )
    assert report.depth == 3
    assert report.participation_max == 4
    assert report.epsilon_multiplier == pytest.approx(4.0 / 3.0)
    assert report.implied_epsilon == pytest.approx(4.0 / 3.0)
    assert report.noise_scale == pytest.approx(6.0)
    assert report.noise_scale_ok and report.passed
    d = report.to_dict()
    assert d["participation_counts"] == list(report.participation_counts)


@pytest.mark.parametrize("k", range(1, 11))
def test_privacy_audit_passes_at_a_power_of_two_while_it_reports_the_excess(k):
    # passed judges the sensitivity and the noise scale only: at T = 2^k an
    # arrival joins k + 1 bundles of scale 2k / epsilon, so the run is
    # epsilon (k + 1)/k-private and the audit passes; one arrival more and
    # the depth catches up (a depth of T.bit_length() changes this test on purpose)
    T = 2**k
    report = privacy_audit(T, 2, 1.0, n_pairs=1)
    assert report.participation_max == T.bit_length() == report.depth + 1 == k + 1
    assert report.implied_epsilon == report.epsilon_multiplier == (k + 1) / k
    assert report.passed
    report = privacy_audit(T + 1, 2, 1.0, n_pairs=1)
    assert report.participation_max == (T + 1).bit_length() == report.depth == k + 1
    assert report.epsilon_multiplier == report.implied_epsilon == 1.0
    assert report.passed


def test_privacy_audit_sensitivity_matches_the_all_partial_sums_reference():
    # the audit normalises only each pair's slot row; the reference replays
    # all T partial sums of both sequences from the same draws
    for T, d, seed, pairs in itertools.product(
        (1, 2, 3, 7, 8, 64, 1000, 1024), (1, 2, 3, 17), (0, 1), (1, 7, 64)
    ):
        got = privacy_audit(T, d, 1.0, n_pairs=pairs, seed=seed).sensitivity_max
        assert got == reference_sensitivity(T, d, pairs, seed), (T, d, seed, pairs)


def test_privacy_audit_sensitivity_matches_the_reference_across_chunks(monkeypatch):
    # a chunk holds AUDIT_ENTRIES // (T * d) pairs; a small cap makes many
    monkeypatch.setattr(harness, "AUDIT_ENTRIES", 64)
    for T, d, seed, pairs in itertools.product((1, 3, 7, 8, 64), (1, 2, 3), (0, 1), (7, 64)):
        if T * d <= 64:
            got = privacy_audit(T, d, 1.0, n_pairs=pairs, seed=seed).sensitivity_max
            assert got == reference_sensitivity(T, d, pairs, seed), (T, d, seed, pairs)


def test_privacy_audit_buffers_draw_what_fresh_arrays_draw():
    # 3,900 pairs at T = 1024, d = 2: a full chunk of 1,953 pairs, then a
    # short one of 1,947 that refills only the front of the buffers; at
    # these seeds the short chunk holds the maximum
    T, d, pairs = 1024, 2, 3900
    assert harness.AUDIT_ENTRIES // (T * d) < pairs < 2 * (harness.AUDIT_ENTRIES // (T * d))
    for seed in (0, 2):
        got = privacy_audit(T, d, 1.0, n_pairs=pairs, seed=seed).sensitivity_max
        assert got == fresh_draw_sensitivity(T, d, pairs, seed), seed


def test_privacy_audit_validation():
    with pytest.raises(InvalidParameterError):
        privacy_audit(T=0, d=1, epsilon=1.0)
    with pytest.raises(InvalidParameterError):
        privacy_audit(T=2 ** 14 + 1, d=1, epsilon=1.0)
    with pytest.raises(InvalidParameterError):
        privacy_audit(T=8, d=0, epsilon=1.0)
    with pytest.raises(InvalidParameterError):
        privacy_audit(T=8, d=1, epsilon=0.0)
    tiny = privacy_audit(T=1, d=1, epsilon=2.0, n_pairs=100)
    assert tiny.depth == 1 and tiny.participation_max == 1
    assert tiny.noise_scale == pytest.approx(1.0)


def test_privacy_audit_checks_its_noise_scale_before_it_samples(monkeypatch, capsys):
    # epsilon = 1e-320 is positive, but 2 ceil(log2 T) / epsilon overflows:
    # the audit must refuse it before it builds its generator, not after its draws
    def no_generator(seed):
        raise AssertionError("the audit built its generator before checking its noise scale")

    monkeypatch.setattr(harness.np.random, "default_rng", no_generator)
    for epsilon in (1e-320, 0.0, math.nan):
        with pytest.raises(InvalidParameterError, match="must be finite and positive"):
            privacy_audit(T=8, d=2, epsilon=epsilon, n_pairs=1)
    assert cli_main(["audit", "--T", "8", "--d", "2", "--epsilon", "1e-320"]) == 2
    assert capsys.readouterr().err.startswith("error: noise scale must be finite and positive")


def test_privacy_audit_rejects_vacuous_and_unbounded_inputs(monkeypatch, capsys):
    # no pair sampled would pass the sensitivity check vacuously
    for pairs in (0, -5):
        with pytest.raises(InvalidParameterError, match=r"n_pairs must lie in \[1, 134217728\]"):
            privacy_audit(T=8, d=2, epsilon=1.0, n_pairs=pairs)
        assert cli_main(["audit", "--T", "8", "--d", "2", "--epsilon", "1",
                         "--pairs", str(pairs)]) == 2
        assert capsys.readouterr().err.startswith("error: n_pairs")
    assert privacy_audit(T=8, d=2, epsilon=1.0, n_pairs=1).passed
    # the audit's time grows with the entries it samples, pairs x T x d, so
    # they are capped at every shape; the cap is checked before anything is
    # sampled, and a small cap keeps what a missing check would run short
    assert AUDIT_SAMPLED == 2**31
    assert AUDIT_SAMPLED // (1024 * 2) >= 10**6
    with pytest.raises(InvalidParameterError, match=r"n_pairs must lie in \[1, 537\]"):
        privacy_audit(T=16384, d=244, epsilon=1.0, n_pairs=538)
    monkeypatch.setattr(harness, "AUDIT_SAMPLED", 192)
    assert privacy_audit(T=8, d=2, epsilon=1.0, n_pairs=12).passed
    with pytest.raises(InvalidParameterError,
                       match=r"n_pairs must lie in \[1, 12\]: n_pairs \* T \* d <= 192"):
        privacy_audit(T=8, d=2, epsilon=1.0, n_pairs=13)
    with pytest.raises(InvalidParameterError, match=r"n_pairs must lie in \[1, 4\]"):
        privacy_audit(T=8, d=6, epsilon=1.0, n_pairs=5)
    assert cli_main(["audit", "--T", "8", "--d", "2", "--epsilon", "1", "--pairs", "13"]) == 2
    assert capsys.readouterr().err.startswith("error: n_pairs must lie in [1, 12]")
    # with no --pairs the audit samples as many pairs as the cap allows
    assert cli_main(["audit", "--T", "8", "--d", "6", "--epsilon", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == privacy_audit(8, 6, 1.0, n_pairs=4).to_dict()
    assert cli_main(["audit", "--T", "8", "--d", "6", "--epsilon", "1", "--pairs", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: n_pairs must lie in [1, 4]")
    # a chunk holds at least one pair's (T, d) arrays, so T * d is capped;
    # a small cap keeps what a missing check would allocate small
    assert AUDIT_ENTRIES == 4_000_000
    monkeypatch.setattr(harness, "AUDIT_ENTRIES", 64)
    assert privacy_audit(T=8, d=8, epsilon=1.0, n_pairs=3).passed
    with pytest.raises(InvalidParameterError, match=r"d must lie in \[1, 8\]: T \* d <= 64"):
        privacy_audit(T=8, d=9, epsilon=1.0, n_pairs=3)
    assert cli_main(["audit", "--T", "8", "--d", "9", "--epsilon", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: d must lie in [1, 8]")


def _write_config(tmp_path, seeds=100):
    cfg = json.loads(json.dumps(BASE))
    cfg["seeds"] = {"count": seeds}
    cfg["traders"] = [{"kind": "herd"}, {"kind": "random"}]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_cli_run_verify_roundtrip(tmp_path, capsys):
    config = _write_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.jsonl").exists()
    capsys.readouterr()

    assert cli_main(["verify", "--metrics", str(out), "--check", "all"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    reports = [json.loads(l) for l in lines]
    assert {r["check"] for r in reports} == {"precision", "budget", "share_accuracy", "noise_loss"}
    assert all(r["passed"] for r in reports)


def test_parallel_starts_at_most_one_worker_per_seed_and_cpu(monkeypatch, tmp_path, capsys):
    started = []

    class RecordingPool:  # ProcessPoolExecutor's stand-in: records, maps in process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    cfg = _cfg()
    serial = tmp_path / "serial"
    run_trials(cfg, out_dir=str(serial), seeds=range(5))
    assert started == []
    for parallel, seeds, workers in ((100_000, range(5), 3), (2, range(5), 2),
                                     (100_000, range(2), 2), (100_000, range(1), None)):
        out = tmp_path / f"p{parallel}-{len(seeds)}"
        started.clear()
        metrics = run_trials(cfg, out_dir=str(out), seeds=seeds, parallel=parallel)
        assert started == ([] if workers is None else [workers])
        assert [m.seed for m in metrics] == list(seeds)
    assert (serial / "metrics.jsonl").read_bytes() == (
        tmp_path / "p2-5" / "metrics.jsonl").read_bytes()
    config = _write_config(tmp_path, seeds=4)
    started.clear()
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "cli"),
                     "--parallel", "100000"]) == 0
    assert started == [3]
    for bad in (0, -2, True, 1.5):
        with pytest.raises(ConfigError, match="parallel must be"):
            run_trials(cfg, out_dir=str(tmp_path / "bad"), seeds=range(2), parallel=bad)
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "bad"),
                     "--parallel", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: parallel must be >= 1")
    assert not (tmp_path / "bad").exists()
    monkeypatch.undo()
    assert 1 <= harness._usable_cpus() <= (os.cpu_count() or 1)


def test_seed_count_is_capped_before_any_seed_list_is_built(tmp_path, capsys):
    assert _cfg(seeds={"count": MAX_SEEDS}).seeds_count == MAX_SEEDS
    assert len(_parse_seed_range(f"5..{MAX_SEEDS + 5}")) == MAX_SEEDS
    config = _write_config(tmp_path, seeds=2)
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--seeds", "0..1000000000000"]) == 2
    assert f"the seeds exceed the cap of {MAX_SEEDS}" in capsys.readouterr().err
    for seeds in (range(MAX_SEEDS + 1), range(10**12), range(10**20)):
        with pytest.raises(ConfigError, match=f"exceed the cap of {MAX_SEEDS}"):
            run_trials(_cfg(), out_dir=str(tmp_path / "out"), seeds=seeds)
    assert not (tmp_path / "out").exists()


def test_cli_seed_range_and_parallel(tmp_path, capsys):
    config = _write_config(tmp_path, seeds=4)
    out_a = tmp_path / "serial"
    out_b = tmp_path / "parallel"
    assert cli_main(["run", "--config", str(config), "--out", str(out_a),
                     "--seeds", "10..14"]) == 0
    assert cli_main(["run", "--config", str(config), "--out", str(out_b),
                     "--seeds", "10..14", "--parallel", "2"]) == 0
    assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
    rows = load_metrics(str(out_a))
    assert [r["seed"] for r in rows] == [10, 11, 12, 13]


def test_cli_negative_seed_range_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, seeds=2)
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--seeds=-5..0"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "c.json", "--out", "o", "--seeds", "x"],
    ["audit", "--T", "x", "--d", "2", "--epsilon", "1"],
    ["run", "--out", "o"],
    ["verify", "--metrics", "o", "--check", "foo"],
    ["foo"],
    [],
], ids=["seed range", "audit T", "no config", "unknown check", "unknown command", "no command"])
def test_cli_usage_errors_are_one_error_line(argv, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--help"])
    assert exc.value.code == 0
    assert "--seeds" in capsys.readouterr().out


def test_cli_run_out_at_a_file_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def trial(config, seed):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", trial)
    config = _write_config(tmp_path, seeds=2)
    out = tmp_path / "metrics.jsonl"
    out.write_text("", encoding="utf-8")
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write run directory") and len(err.splitlines()) == 1


def test_run_trials_rejects_bad_seeds_before_any_trial(tmp_path):
    cfg = _cfg()
    for seeds, message in (
        (range(0), "at least one seed"),
        (range(-2, 0), "seed must be >= 0"),
        ([0, 1, -1], "seed must be >= 0"),
        ([0, 1.5], "seed must be an integer"),
        ([True], "seed must be an integer"),
        (["3"], "seed must be an integer"),
    ):
        with pytest.raises(ConfigError, match=message):
            run_trials(cfg, out_dir=str(tmp_path / "out"), seeds=seeds)
        assert not (tmp_path / "out").exists()
    assert [m.seed for m in run_trials(cfg, seeds=range(2, 4))] == [2, 3]


def test_cli_audit_and_schedule(capsys):
    assert cli_main(["audit", "--T", "8", "--d", "2", "--epsilon", "1.0",
                     "--pairs", "500"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["T"] == 8

    assert cli_main(["schedule", "--B1", str(math.log(2)), "--d", "1",
                     "--alpha", "0.1", "--gamma", "0.1", "--epsilon", "1.0",
                     "--k-max", "3"]) == 0
    text = capsys.readouterr().out
    assert "stage 1: T = 19456605" in text
    assert "all inequalities: ok" in text


def test_cli_audit_omits_long_participation_tables_unless_full(capsys):
    def counts(T, *flags):
        assert cli_main(["audit", "--T", str(T), "--d", "2", "--epsilon", "1",
                         "--pairs", "10", *flags]) == 0
        return json.loads(capsys.readouterr().out)["participation_counts"]

    assert counts(128) == "omitted (use --full)"
    assert counts(128, "--full") == [participation_count(t, 128) for t in range(1, 129)]
    assert counts(64) == counts(64, "--full") == [participation_count(t, 64) for t in range(1, 65)]


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"market": {"d": 2}}), encoding="utf-8")
    code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "missing required field" in capsys.readouterr().err


def test_caps_on_d_and_max_stages(capsys):
    assert _cfg(market=dict(BASE["market"], d=MAX_D)).d == MAX_D
    with pytest.raises(ConfigError, match=f"market.d must be <= {MAX_D}"):
        _cfg(market=dict(BASE["market"], d=MAX_D + 1))
    # loading builds one strategy per roster entry, never per count; no trial runs
    roster = [{"kind": "herd", "count": MAX_TRADERS}]
    assert _cfg(traders=roster).traders[0].count == MAX_TRADERS
    with pytest.raises(ConfigError, match=f"total count must be <= {MAX_TRADERS}"):
        _cfg(traders=[{"kind": "herd", "count": 10**9}])
    # paper-scale stage 3 (d = 2) fits under the horizon cap, and so does the
    # paper-scale three-stage plan
    assert _cfg(market=dict(BASE["market"], T=MAX_T)).T == MAX_T >= 60_895_344
    paper = _cfg(market=dict(BASE["market"], T=64), adaptive={})
    assert [m.T for m in paper.markets()] == [3_805_959, 15_223_836, 60_895_344]
    assert sum(m.T for m in paper.markets()) == 79_925_139 <= MAX_T
    # the cap bounds the plan's total: one stage of MAX_T loads, three do not
    assert _cfg(adaptive={"stage_override": MAX_T, "max_stages": 1}).stage_override == MAX_T
    with pytest.raises(ConfigError, match=f"stage plan's {3 * MAX_T} arrivals exceed {MAX_T}"):
        _cfg(adaptive={"stage_override": MAX_T})
    with pytest.raises(ConfigError, match=f"market.T must be <= {MAX_T}"):
        _cfg(market=dict(BASE["market"], T=MAX_T + 1))
    assert _cfg(stream_length=MAX_T).stream_length == MAX_T
    with pytest.raises(ConfigError, match=f"stream_length must be <= {MAX_T}"):
        _cfg(stream_length=MAX_T + 1)
    with pytest.raises(ConfigError, match="market.T must be >= 2"):
        _cfg(market=dict(BASE["market"], T=1))
    with pytest.raises(ConfigError, match=f"adaptive.stage_override must be <= {MAX_T}"):
        _cfg(adaptive={"stage_override": MAX_T + 1})
    sched = stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=MAX_STAGES)
    assert len(sched.stages) == MAX_STAGES
    with pytest.raises(InvalidParameterError, match="max_stages"):
        stage_schedule(math.log(2), 2, 0.2, 0.1, 1.0, max_stages=MAX_STAGES + 1)
    with pytest.raises(ConfigError, match="max_stages"):
        _cfg(adaptive={"stage_override": 8, "max_stages": MAX_STAGES + 1})
    assert cli_main(["schedule", "--B1", str(math.log(2)), "--d", "2", "--alpha", "0.1",
                     "--gamma", "0.1", "--epsilon", "1.0", "--k-max", str(MAX_STAGES + 1)]) == 2
    assert "max_stages" in capsys.readouterr().err


def test_stream_slots_follow_the_eager_order():
    def eager(instances, order, length):  # the list the stream used to be
        if order == "sequential":
            per = max(1, math.ceil(length / len(instances)))
            return [inst for inst in instances for _ in range(per)][:length]
        return [instances[i % len(instances)] for i in range(length)]

    instances = [Herd(), BeliefTrader([0.5, 0.5]), Abstainer(), Herd(),
                 RandomTrader(np.random.default_rng(0))]
    for order, length in itertools.product(("round_robin", "sequential"), (0, 1, 4, 5, 7, 23)):
        stream, slots = Stream(instances, length, order), eager(instances, order, length)
        assert [stream.owner(i) for i in range(length)] == slots
        for start, stop in itertools.combinations(range(length + 1), 2):
            runs = [(strat, i) for strat, index in stream.runs(start, stop) for i in index]
            assert sorted(runs, key=lambda run: run[1]) == list(zip(slots, range(length)))[start:stop]
    # a stream far longer than the market can fill builds nothing up front
    stream = Stream(instances, MAX_T, "sequential")
    per = stream.per
    assert stream.owner(MAX_T - 1) is instances[-1] and stream.owner(per) is instances[1]
    assert list(stream.runs(per - 1, per + 1)) == [
        (instances[0], range(per - 1, per)), (instances[1], range(per, per + 1))]
    for order in ("round_robin", "sequential"):
        assert run_trial(_cfg(arrival_order=order, stream_length=MAX_T), seed=0).arrivals == 8


FLAT_ONLY = {
    "fee": ("market", "fee", 0.0),
    "lambda": ("market", "lambda", 0.0001),
    "noise_off": ("market", "noise_off", True),
    "allow_unsafe_lambda": ("market", "allow_unsafe_lambda", True),
}


@pytest.mark.parametrize("section,name,value", FLAT_ONLY.values(), ids=FLAT_ONLY.keys())
def test_adaptive_rejects_flat_market_fields(section, name, value):
    raw = json.loads(json.dumps(BASE))
    raw[section][name] = value
    RunConfig.from_dict(raw)  # a flat market takes it
    raw["adaptive"] = {"stage_override": 8}
    with pytest.raises(ConfigError, match=f"remove market fields.*{name}"):
        RunConfig.from_dict(raw)


def test_adaptive_run_records_its_stage_plan_and_verify_refuses(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE))
    raw["market"]["noise_off"] = False  # the default value stays allowed
    raw["adaptive"] = {"stage_override": 8, "max_stages": 2}
    cfg = RunConfig.from_dict(raw)
    assert cfg.adaptive  # enabled defaults to true once the object is present
    resolved = cfg.resolved()
    sched = cfg.schedule()
    assert resolved["fee"] == cfg.alpha
    assert all(s.fee == cfg.alpha for s in sched.stages)
    assert resolved["stages"] == [
        {"k": k, "T": s.T, "alpha": s.alpha, "gamma": s.gamma, "lambda": s.lam}
        for k, s in enumerate(sched.stages, start=1)
    ]
    assert [s["T"] for s in resolved["stages"]] == [8, 8]
    assert not {"T", "lambda", "lambda_star", "noise_off"} & set(resolved)

    out = tmp_path / "staged"
    run_trials(cfg, out_dir=str(out))
    assert json.loads((out / "resolved_config.json").read_text(encoding="utf-8")) == resolved
    assert cli_main(["verify", "--metrics", str(out), "--check", "all"]) == 2
    assert "no flat-market bound applies" in capsys.readouterr().err


def _missing_config(tmp_path):
    return ["run", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]


def _missing_run_dir(tmp_path):
    return ["verify", "--metrics", str(tmp_path / "missing"), "--check", "all"]


def _no_resolved_config(tmp_path):
    (tmp_path / "metrics.jsonl").write_text("", encoding="utf-8")
    return ["verify", "--metrics", str(tmp_path), "--check", "all"]


@pytest.mark.parametrize("argv", [_missing_config, _missing_run_dir, _no_resolved_config])
def test_cli_unreadable_files_exit_2(argv, tmp_path, capsys):
    assert cli_main(argv(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _row(damage):
    """Replace the last metrics row by damage(row)."""
    return lambda rows, resolved: (rows[:-1] + [damage(rows[-1])], resolved)


def _metric(name, value):
    """Set metric name to value in every row."""
    return lambda rows, resolved: (
        [json.dumps({**json.loads(row), name: value}) for row in rows], resolved)


def _resolved(key, value):
    """Set resolved_config.json's key to value."""
    return lambda rows, resolved: (rows, json.dumps({**json.loads(resolved), key: value}))


MALFORMED_RUN_DIRS = {
    "truncated row": _row(lambda row: '{"seed": 0'),
    "row not an object": _row(lambda row: "[1, 2]"),
    "row missing a metric field": _row(
        lambda row: json.dumps({k: v for k, v in json.loads(row).items() if k != "ntl"})),
    "metric not a number": _row(lambda row: row.replace('"ntl": ', '"ntl": "x", "_": ')),
    "resolved config without adaptive": lambda rows, resolved: (
        rows, json.dumps({k: v for k, v in json.loads(resolved).items() if k != "adaptive"})),
    "resolved config not an object": lambda rows, resolved: (rows, "[]"),
    "flat resolved config without T": lambda rows, resolved: (
        rows, json.dumps({k: v for k, v in json.loads(resolved).items() if k != "T"})),
    "NaN price gap": _metric("max_price_gap", math.nan),
    "infinite designer loss": _metric("designer_loss", math.inf),
    "alpha a string": _resolved("alpha", "0.3"),
    "lambda zero": _resolved("lambda", 0),
    "gamma zero": _resolved("gamma", 0),
    "T not an integer": _resolved("T", 2.5),
    "d a boolean": _resolved("d", True),
    "adaptive not a boolean": _resolved("adaptive", 0),
}


@pytest.mark.parametrize("damage", MALFORMED_RUN_DIRS.values(), ids=MALFORMED_RUN_DIRS.keys())
def test_cli_verify_on_a_malformed_run_dir_exits_2(damage, tmp_path, capsys):
    run_trials(_cfg(seeds={"count": 2}), out_dir=str(tmp_path))
    metrics, config = tmp_path / "metrics.jsonl", tmp_path / "resolved_config.json"
    rows = metrics.read_text(encoding="utf-8").splitlines() * 50  # enough rows to judge
    metrics.write_text("\n".join(rows) + "\n", encoding="utf-8")
    argv = ["verify", "--metrics", str(tmp_path), "--check", "all"]
    assert cli_main(argv) in (0, 1)  # intact, the directory reaches the checks
    rows, resolved = damage(rows, config.read_text(encoding="utf-8"))
    metrics.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config.write_text(resolved, encoding="utf-8")
    capsys.readouterr()
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("market", [
    {}, {"fee": 0}, {"noise_off": True}, {"lambda": 0.05, "allow_unsafe_lambda": True},
], ids=["default", "fee 0", "noise off", "lambda above lambda*"])
def test_read_run_dir_returns_the_run_market(market, tmp_path):
    raw = json.loads(json.dumps(BASE))
    raw["market"].update(market)
    cfg = RunConfig.from_dict(raw)
    metrics = run_trials(cfg, out_dir=str(tmp_path), seeds=range(2))
    rows, got = harness.read_run_dir(str(tmp_path))
    assert rows == [m.to_dict() for m in metrics]
    want = cfg.market_params()
    for name in ("d", "epsilon", "alpha", "gamma", "T", "fee", "lam", "noise_off", "B1"):
        assert getattr(got, name) == getattr(want, name), name


VALID = {
    "market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 8, "fee": None,
               "lambda": None, "noise_off": False, "allow_unsafe_lambda": False},
    "traders": [
        {"kind": "herd", "count": 1, "params": {"coordinate": 1}},
        {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15], "threshold": 0.1}},
        {"kind": "belief", "params": {"belief": None}},
    ],
    "outcome": 0,
    "seeds": {"start": 0, "count": 5},
    "arrival_order": "round_robin",
    "stream_length": None,
    "adaptive": {"enabled": True, "stage_override": 8, "max_stages": 3},
}
KEYS = sorted({key for section in VALID.values() if isinstance(section, dict) for key in section}
              | set(VALID) | {"kind", "count", "params", "belief", "threshold", "coordinate"})
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from([-1, 0, 1, 2, 3, 64, 65, MAX_D, MAX_D + 1, 2**53 + 1, 10**400, -10**400,
                     "round_robin", "sequential", "herd", "random"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=6)), inner, max_size=4),
    max_leaves=10,
)


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    raw = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(raw))[1:]))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(("replace", "delete", "add")))
        if action == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = draw(JSON_VALUES)
    return raw


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(JSON_VALUES, mutated_configs()))
def test_from_dict_returns_or_raises_config_error(raw):
    try:
        cfg = RunConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    assert isinstance(cfg.resolved(), dict)

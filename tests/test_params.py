"""Parameter ranges: every mechanism formula takes a value or raises InvalidParameterError.

Floats are drawn with NaN, the infinities, zeros, values that underflow
(1e-300, whose products with each other round to 0) and values that
overflow (1e300); no other exception may escape.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket import (
    ConfigError,
    InvalidParameterError,
    MarketParams,
    RunConfig,
    budget_bound,
    lambda_star,
    loss_bounds,
    noise_scale,
    noise_scale_K,
    privacy_audit,
    sample_bundle,
    stage_schedule,
)
from privmarket.adaptive import MAX_STAGES
from privmarket.cli import main as cli_main

EDGES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-150, 1e300,
         1.7976931348623157e308, -1.0, 0.1, 0.3, 0.5, 0.999, 1.0, 2.0)
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats())
T = st.integers(0, 2**20)
D = st.integers(0, 1100)
FEE = st.one_of(st.none(), FLOATS)

# name -> (function, one strategy per positional argument)
CALLS = {
    "lambda_star": (lambda_star, T, FLOATS, FLOATS, FLOATS, D),
    "stage_schedule": (stage_schedule, FLOATS, D, FLOATS, FLOATS, FLOATS,
                       st.integers(0, MAX_STAGES + 1)),
    "budget_bound": (budget_bound, FLOATS, D, FLOATS, FLOATS, FLOATS),
    "noise_scale": (noise_scale, T, FLOATS),
    "noise_scale_K": (noise_scale_K, T, FLOATS, D),
    "sample_bundle": (sample_bundle, st.integers(0, 4), FLOATS,
                      st.integers(0, 2**32).map(np.random.default_rng),
                      st.one_of(st.none(), st.integers(1, 3))),
    "loss_bounds": (loss_bounds, FLOATS, T, FLOATS, FLOATS, FLOATS),
    "privacy_audit": (privacy_audit, st.integers(0, 9), st.integers(0, 3), FLOATS,
                      st.integers(-1, 4)),
    "MarketParams": (MarketParams, D, FLOATS, FLOATS, FLOATS, T, FEE, FEE, st.booleans(),
                     st.booleans()),
}


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_formula_takes_a_draw_or_raises_invalid_parameter(name, data):
    fn, *strategies = CALLS[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        with np.errstate(over="ignore"):  # a huge Laplace scale's draws may overflow to inf
            fn(*args)
    except InvalidParameterError:
        pass


@settings(max_examples=200, deadline=None, database=None)
@given(FLOATS, FLOATS, FLOATS, st.integers(2, 8), st.integers(1, MAX_STAGES))
def test_adaptive_config_loads_or_raises_config_error(epsilon, alpha, gamma, d, max_stages):
    raw = {
        "market": {"d": d, "epsilon": epsilon, "alpha": alpha, "gamma": gamma, "T": 64},
        "traders": [{"kind": "herd"}],
        "adaptive": {"max_stages": max_stages},
    }
    try:
        RunConfig.from_dict(raw)
    except ConfigError:
        pass


# name -> a call with x in one checked slot; valid values everywhere else
GUARDED = {
    "lambda_star epsilon": lambda x: lambda_star(16, 0.1, 0.1, x, 2),
    "noise_scale epsilon": lambda x: noise_scale(16, x),
    "noise_scale_K epsilon": lambda x: noise_scale_K(16, x, 2),
    "sample_bundle scale": lambda x: sample_bundle(2, x, np.random.default_rng(0)),
    "loss_bounds lam": lambda x: loss_bounds(x, 16, 1.0, 0.1, 0.0),
    "loss_bounds K": lambda x: loss_bounds(0.01, 16, x, 0.1, 0.0),
    "loss_bounds fee": lambda x: loss_bounds(0.01, 16, 1.0, x, 0.0),
    "loss_bounds B1": lambda x: loss_bounds(0.01, 16, 1.0, 0.1, x),
    "privacy_audit epsilon": lambda x: privacy_audit(8, 2, x, n_pairs=1),
    "MarketParams epsilon": lambda x: MarketParams(2, x, 0.3, 0.1, 16),
    "MarketParams fee": lambda x: MarketParams(2, 1.0, 0.3, 0.1, 16, fee=x),
    "stage_schedule B1": lambda x: stage_schedule(x, 2, 0.3, 0.1, 1.0),
    "stage_schedule epsilon": lambda x: stage_schedule(0.7, 2, 0.3, 0.1, x, t1_override=8),
    "budget_bound B1": lambda x: budget_bound(x, 2, 0.3, 0.1, 1.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", GUARDED.values(), ids=GUARDED.keys())
def test_non_finite_values_are_rejected(call, value):
    call(1.0)  # the slot takes a finite value
    with pytest.raises(InvalidParameterError, match="must be finite"):
        call(value)


SCHEDULE = ["schedule", "--d", "2", "--alpha", "0.1", "--gamma", "0.1", "--epsilon", "1"]


@pytest.mark.parametrize("argv", [  # argparse keeps the last of a repeated flag
    SCHEDULE + ["--B1", "inf"],
    SCHEDULE + ["--B1", "nan"],
    SCHEDULE + ["--B1", "0.69", "--epsilon", "1e-300"],
    SCHEDULE + ["--B1", "0.69", "--alpha", "1e-300", "--epsilon", "1e-300"],
    SCHEDULE + ["--B1", "1e300", "--k-max", str(MAX_STAGES)],
    ["audit", "--T", "8", "--d", "2", "--epsilon", "nan"],
    ["audit", "--T", "8", "--d", "2", "--epsilon", "inf"],
], ids=lambda argv: " ".join(argv))
def test_cli_out_of_range_numbers_exit_2_with_one_error_line(argv, capsys):
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_adaptive_run_with_underflowing_alpha_epsilon_exits_2(tmp_path, capsys):
    config = tmp_path / "tiny.json"
    config.write_text(
        '{"market": {"d": 2, "epsilon": 1e-300, "alpha": 1e-300, "gamma": 0.1, "T": 64},'
        ' "traders": [{"kind": "herd"}], "adaptive": {}}', encoding="utf-8")
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "error: adaptive: alpha * epsilon must be finite and positive\n"
    assert not (tmp_path / "out").exists()

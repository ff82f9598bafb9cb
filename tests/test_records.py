"""The package's records: immutable NamedTuples that pickle, none of them a
dataclass, counted in a fresh interpreter."""

import json
import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import privmarket
from privmarket import (
    METRIC_FIELDS,
    AdaptiveResult,
    Herd,
    InvalidParameterError,
    MarketParams,
    RunConfig,
    ScaledCost,
    StageSchedule,
    Stream,
    TrialMetrics,
    loss_bounds,
    privacy_audit,
    run_trial,
    stage_schedule,
    verify_precision,
    verify_stage_inequalities,
)
from privmarket.adaptive import StageCheck, StageInequalityReport

# classes defined in privmarket.* that stay dataclasses
KEPT_DATACLASSES = []

# whether importing the package loads the dataclasses module, then the
# classes it defines that are dataclasses
COUNT_DATACLASSES = """
import inspect, json, sys
import privmarket
loaded = "dataclasses" in sys.modules
import dataclasses
print(json.dumps([loaded, sorted(
    f"{name}.{cls.__qualname__}"
    for name, module in list(sys.modules.items())
    if name == "privmarket" or name.startswith("privmarket.")
    for _, cls in inspect.getmembers(module, inspect.isclass)
    if cls.__module__ == name and dataclasses.is_dataclass(cls))]))
"""

CONFIG = {
    "market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 16},
    "traders": [{"kind": "herd"}, {"kind": "random"},
                {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15]}}],
}


def test_only_the_listed_classes_stay_dataclasses():
    src = pathlib.Path(privmarket.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", COUNT_DATACLASSES], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert json.loads(done.stdout) == [False, KEPT_DATACLASSES]


def _records() -> list:
    cfg = RunConfig.from_dict(CONFIG)
    schedule = stage_schedule(math.log(2), 2, 0.3, 0.1, 1.0, max_stages=2, t1_override=16)
    inequalities = verify_stage_inequalities(schedule)
    session = privmarket.open_market(cfg.market_params(), rng=0)
    session.close(0)
    row = run_trial(cfg, 3)
    return [
        cfg, cfg.traders[2], cfg.market_params(), session.cost, schedule, inequalities,
        inequalities.checks[0], AdaptiveResult(stages=(), ledger=session.ledger),
        session.ledger, loss_bounds(0.1, 16, 1.0, 0.3, math.log(2)), row,
        verify_precision([row.to_dict()] * 100, 0.3, 0.1), privacy_audit(8, 2, 1.0, n_pairs=1),
    ]


def test_every_record_is_a_namedtuple_that_survives_a_pickle_round_trip():
    records = _records()
    kinds = {type(r) for r in records}
    assert len(kinds) == len(records) == 13
    assert {StageCheck, StageInequalityReport, StageSchedule, TrialMetrics} <= kinds
    for record in records:
        assert isinstance(record, tuple) and record._fields, type(record)
        assert not hasattr(record, "__dict__"), type(record)
        data = pickle.dumps(record)  # a roster entry's args may hold an ndarray: no ==
        back = pickle.loads(data)
        assert type(back) is type(record) and repr(back) == repr(record)
        assert pickle.dumps(back) == data


def test_metric_fields_are_the_trial_metrics_columns_in_order():
    assert METRIC_FIELDS == TrialMetrics._fields == (
        "seed", "arrivals", "stages_completed", "designer_loss", "mm_loss", "ntl", "fees",
        "max_price_gap", "max_share_gap", "mean_bundle_l2",
    )
    row = run_trial(RunConfig.from_dict(CONFIG), 0)
    assert tuple(row.to_dict()) == METRIC_FIELDS


def test_checked_records_check_a_replaced_field_too():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=16)
    assert params.fee == 0.3 and params.lam == params.lam_star
    with pytest.raises(InvalidParameterError, match=r"lam must lie in \(0, 1\]"):
        params._replace(lam=2.0)
    with pytest.raises(InvalidParameterError, match="exceeds lambda_star"):
        params._replace(lam=1.0)
    assert params._replace(lam=1.0, allow_unsafe_lambda=True).lam == 1.0
    cost = ScaledCost(d=2, lam=0.5)
    with pytest.raises(InvalidParameterError, match="d must be >= 1"):
        cost._replace(d=0)
    assert cost._replace(lam=0.25) == ScaledCost(2, 0.25)
    herd = Herd()
    stream = Stream([herd], 4)
    assert stream.instances == (herd,) and stream.per == 1
    with pytest.raises(InvalidParameterError, match="int length >= 0"):
        stream._replace(order="shuffled")
    with pytest.raises(InvalidParameterError, match="lists an instance twice"):
        stream._replace(instances=[herd, herd])
    assert stream._replace(order="sequential", instances=[herd, Herd()]).per == 2


def test_a_verify_report_hands_out_a_copy_of_its_detail():
    row = run_trial(RunConfig.from_dict(CONFIG), 0).to_dict()
    report = verify_precision([row] * 100, 0.3, 0.1)
    out = report.to_dict()
    out["detail"]["alpha"] = np.nan
    assert report.detail["alpha"] == 0.3 and report.to_dict()["detail"]["alpha"] == 0.3

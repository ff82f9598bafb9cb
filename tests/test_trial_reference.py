"""Whole trials against oracles.reference_trial, by == on every row field.

The reference writes the trial out again: the seed layout, the arrival
stream, one decide per slot on a ReferenceSession per market, the stage
handoff and the row reductions.  The configs cover flat and staged runs,
both arrival orders, every strategy kind, streams that run dry mid-stage or
end at a stage boundary, a handoff whose clamp binds, noise_off and a zero
fee.  A hypothesis fuzz draws further configs and compares one drawn seed
each.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privmarket import ConfigError, RunConfig, harness, run_trial, traders

from oracles import reference_trial

MARKET = {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 64}
BLIND = [{"kind": "herd"}, {"kind": "random", "count": 2}]
KINDS = ["herd", "random", "abstainer", "belief", "arbitrage_hunter"]


def _every_kind(d: int) -> list:
    """One of each kind; the readers' beliefs are far enough from uniform to trade."""
    return [{"kind": "herd"}, {"kind": "random"}, {"kind": "abstainer"},
            {"kind": "belief", "params": {"belief": [0.9] + [0.1 / (d - 1)] * (d - 1)}},
            {"kind": "arbitrage_hunter", "params": {"belief": [0.1 / (d - 1)] * (d - 1) + [0.9]}}]


def _market(**fields) -> dict:
    return {"market": {**MARKET, **fields}}


def _staged(override: int, **extra) -> dict:
    return {"adaptive": {"stage_override": override, "max_stages": 3}, **extra}


CONFIGS = {
    "flat, every kind": {"traders": _every_kind(2)},
    "flat d3, sequential, dry mid-market": {
        **_market(d=3, T=32), "traders": _every_kind(3), "arrival_order": "sequential",
        "stream_length": 22},
    "flat, sequential past T": {
        "traders": _every_kind(2)[::-1], "arrival_order": "sequential", "stream_length": 100},
    "flat, noise_off, fee 0": {
        **_market(T=16, noise_off=True, fee=0.0), "traders": [*BLIND, _every_kind(2)[4]],
        "outcome": 1},
    "flat d3, fee 0": {**_market(d=3, T=40, fee=0.0), "traders": _every_kind(3)[2:],
                       "outcome": 2},
    "staged, three full stages": {"traders": [*BLIND, _every_kind(2)[4]], **_staged(16)},
    "staged d3, sequential, dry in stage 2": {
        **_market(d=3), "traders": _every_kind(3), "arrival_order": "sequential",
        **_staged(32, stream_length=60)},
    "staged, stream ends at a stage boundary": {"traders": BLIND, **_staged(16, stream_length=32)},
    "staged, an abstainer after the boundary opens an empty stage": {
        "traders": [{"kind": "herd"}, {"kind": "abstainer"}], **_staged(16, stream_length=32)},
    "staged d3, belief and random": {
        **_market(d=3), "traders": [_every_kind(3)[3], {"kind": "random"}], "outcome": 2,
        **_staged(20)},
    "staged, sequential hunter then herd": {
        "traders": [_every_kind(2)[4], {"kind": "herd"}], "arrival_order": "sequential",
        **_staged(24, stream_length=80)},
    # lambda near 1: the herd drives the other price below alpha / (4 d) by each handoff
    "staged, epsilon 1000, the handoff clamp binds": {
        **_market(epsilon=1000.0), "traders": [{"kind": "herd"}], **_staged(16)},
    "staged d3, every kind, dry in stage 3": {
        **_market(d=3), "traders": _every_kind(3), **_staged(16, stream_length=50)},
}


@pytest.mark.parametrize("name", CONFIGS)
def test_run_trial_matches_the_whole_trial_reference(name):
    config = RunConfig.from_dict({"market": MARKET, "seeds": {"count": 1}, **CONFIGS[name]})
    for seed in (0, 7):
        assert run_trial(config, seed) == reference_trial(config, seed), seed


def test_a_trial_parses_no_trader_params(monkeypatch):
    # RunConfig.from_dict parses each roster entry once; a trial only builds
    config = RunConfig.from_dict({
        **_market(d=3, T=48), "seeds": {"count": 1}, "arrival_order": "sequential",
        "traders": [*_every_kind(3), {"kind": "herd", "params": {"coordinate": 2}},
                    {"kind": "arbitrage_hunter", "count": 2,
                     "params": {"belief": [0.2, 0.7, 0.1], "threshold": 0.05}}]})
    expected = [reference_trial(config, seed) for seed in (0, 3)]

    def parse(*args, **kwargs):
        raise AssertionError("trader params parsed during a trial")

    for module, name in ((traders, "strategy_args"), (harness, "strategy_args"),
                         (traders, "_as_num"), (traders, "_int_in"),
                         (traders, "check_probabilities")):
        monkeypatch.setattr(module, name, parse)
    assert [run_trial(config, seed) for seed in (0, 3)] == expected


def _belief(draw, d: int) -> list:
    weights = draw(st.lists(st.integers(0, 9), min_size=d, max_size=d).filter(any))
    return [w / sum(weights) for w in weights]


@st.composite
def _configs(draw) -> dict:
    """A RunConfig dict: flat or (at d >= 2) staged, a roster of every kind,
    either order, no, a short or a long stream, and epsilon 1 or 1000."""
    d = draw(st.sampled_from([1, 2, 3, 8]))
    market = {**MARKET, "d": d, "epsilon": draw(st.sampled_from([1.0, 1000.0]))}
    config = {"market": market, "seeds": {"count": 1}, "outcome": draw(st.integers(0, d - 1)),
              "arrival_order": draw(st.sampled_from(["round_robin", "sequential"]))}
    if d >= 2 and draw(st.booleans()):
        override, stages = draw(st.integers(2, 32)), draw(st.integers(1, 3))
        config["adaptive"] = {"stage_override": override, "max_stages": stages}
        plan = override * stages  # the override sizes every stage
    else:
        market["T"] = plan = draw(st.integers(2, 64))
        market["noise_off"] = draw(st.booleans())
        if draw(st.booleans()):
            market["fee"] = 0.0
    roster = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)):
        params = {}
        if kind == "herd":
            params["coordinate"] = draw(st.integers(0, d - 1))
        elif kind in ("belief", "arbitrage_hunter"):
            params["belief"] = _belief(draw, d)
            if kind == "arbitrage_hunter" and draw(st.booleans()):
                params["threshold"] = draw(st.floats(-0.1, 0.5))
        roster.append({"kind": kind, "count": draw(st.integers(1, 3)), "params": params})
    config["traders"] = roster
    config["stream_length"] = draw(st.one_of(
        st.none(), st.integers(1, 20), st.integers(1, 4 * plan)))
    return config


@settings(deadline=None, database=None)
@given(config=_configs(), seed=st.integers(0, 2**16))
def test_run_trial_matches_the_whole_trial_reference_on_drawn_configs(config, seed):
    try:
        config = RunConfig.from_dict(config)
    except ConfigError:  # epsilon 1000 at a small d * T puts lambda_star above 1
        assume(False)
    assert run_trial(config, seed) == reference_trial(config, seed)

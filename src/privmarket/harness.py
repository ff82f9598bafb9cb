"""Run configs, Monte Carlo trial runner, verifiers, and the privacy audit.

A run is (config, seed) -> TrialMetrics, bit-deterministic: the seed is
split into independent substreams, one for the noise trader and one per
strategy instance, so removing an actor never shifts another's draws
across comparative runs.  Trials write one JSON line per seed plus a
derived summary CSV (UTF-8, LF).  Verifiers consume the metrics rows and
judge them against the theory at 3-standard-error tolerances; the privacy
audit checks the structural facts the privacy argument needs (partial-sum
sensitivity, participation counts, noise scale) rather than estimating
epsilon empirically.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adaptive import StageSchedule, run_adaptive, stage_schedule
from .errors import ConfigError, InsufficientDataError, InvalidParameterError
# open_market and drive_session run inside run_adaptive; they stay harness
# globals because the benchmark tracer patches them where they are looked up.
from .market import MarketParams, open_market
from .noise import (
    noise_scale,
    participation_table,
    s_flip,
    tree_depth,
)
from .traders import STRATEGY_KINDS, drive_session, make_strategy

MAX_D = 1024
"""Largest market.d a config may ask for.  A default belief allocates d
floats and every best-response decision prices 2d trades of d coordinates,
so d is bounded before anything is built from it."""

MAX_T = 2**30
"""Largest horizon a config may ask for: market.T, adaptive.stage_override,
and the total arrivals of a stage plan.  A trial steps until its markets
fill, so the horizon is bounded before a trial runs.  The paper-scale plan
at default sizing (d=2, three stages) is 79,925,139 arrivals, well inside
the cap."""

MAX_TRADERS = 10_000
"""Largest total roster count.  Every trial spawns one seed and builds one
strategy per instance, so the count is bounded before a trial runs."""


@dataclass(frozen=True)
class TrialMetrics:
    """Per-seed outcome of one simulated run."""

    seed: int
    arrivals: int
    stages_completed: int
    designer_loss: float
    mm_loss: float
    ntl: float
    fees: float
    max_price_gap: float
    max_share_gap: float
    mean_bundle_l2: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(TrialMetrics))


@dataclass(frozen=True)
class RosterEntry:
    kind: str
    count: int
    params: dict


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation plan; SCHEMA lists its JSON fields and defaults."""

    d: int
    epsilon: float
    alpha: float
    gamma: float
    T: int
    traders: tuple[RosterEntry, ...]
    fee: float | None
    lam: float | None
    noise_off: bool
    allow_unsafe_lambda: bool
    outcome: int
    seeds_start: int
    seeds_count: int
    arrival_order: str
    stream_length: int | None
    adaptive: bool
    stage_override: int | None
    max_stages: int

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        cfg = cls(**_parse_section("config", raw))
        if not (0 <= cfg.outcome < cfg.d):
            raise ConfigError(f"outcome must lie in [0, {cfg.d})")
        if cfg.adaptive:
            if cfg.d < 2:
                raise ConfigError("adaptive runs need d >= 2 (B1 = ln d must be positive)")
            flat_only = {
                "fee": cfg.fee is not None,
                "lambda": cfg.lam is not None,
                "noise_off": cfg.noise_off,
                "allow_unsafe_lambda": cfg.allow_unsafe_lambda,
            }
            if any(flat_only.values()):
                given = [key for key, is_set in flat_only.items() if is_set]
                raise ConfigError(
                    "adaptive runs charge fee alpha, set lambda per stage and always add "
                    f"noise; remove market fields {given}"
                )
            horizon = sum(m.T for m in cfg.schedule().stages)
            if horizon > MAX_T:
                raise ConfigError(f"adaptive: the stage plan's {horizon} arrivals exceed {MAX_T}")
        cfg.market_params()
        rng = np.random.default_rng(0)  # throwaway: construction draws nothing
        for i, entry in enumerate(cfg.traders):
            try:
                make_strategy(entry.kind, entry.params, cfg.d, rng)
            except InvalidParameterError as exc:
                raise ConfigError(f"traders[{i}]: {exc}") from exc
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def market_params(self) -> MarketParams:
        """The flat market's parameters."""
        return _checked(
            "market", MarketParams, d=self.d, epsilon=self.epsilon, alpha=self.alpha,
            gamma=self.gamma, T=self.T, fee=self.fee, lam=self.lam,
            noise_off=self.noise_off, allow_unsafe_lambda=self.allow_unsafe_lambda,
        )

    def schedule(self) -> StageSchedule:
        """The stage plan of an adaptive run."""
        return _checked(
            "adaptive", stage_schedule, math.log(self.d), self.d, self.alpha, self.gamma,
            self.epsilon, max_stages=self.max_stages, t1_override=self.stage_override,
        )

    def markets(self) -> tuple[MarketParams, ...]:
        """The markets a trial runs in order: the stages, or the one flat market."""
        return self.schedule().stages if self.adaptive else (self.market_params(),)

    def resolved(self) -> dict:
        """The mechanism that runs (flat market or stage plan), for resolved_config.json."""
        out = {
            "d": self.d,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "B1": math.log(self.d),
            "outcome": self.outcome,
            "adaptive": self.adaptive,
            "stage_override": self.stage_override,
            "max_stages": self.max_stages,
            "seeds": {"start": self.seeds_start, "count": self.seeds_count},
        }
        if self.adaptive:
            sched = self.schedule()
            out["fee"] = sched.fee
            out["stages"] = [
                {"k": k, "T": s.T, "alpha": s.alpha, "gamma": s.gamma, "lambda": s.lam}
                for k, s in enumerate(sched.stages, start=1)
            ]
        else:
            params = self.market_params()
            out.update({"T": self.T, "fee": params.fee, "lambda": params.lam,
                        "lambda_star": params.lam_star, "noise_off": self.noise_off})
        return out


def _checked(section: str, build, *args, **kwargs):
    """Call a validating constructor; its parameter errors become ConfigError."""
    try:
        return build(*args, **kwargs)
    except (InvalidParameterError, OverflowError) as exc:
        # OverflowError: an integer too large for float arithmetic, e.g. T = 10**400
        raise ConfigError(f"{section}: {exc}") from exc


REQUIRED = object()  # SCHEMA default of a field that must be present


def _int_in(low=-math.inf, high=math.inf):
    """Parser of an integer in [low, high]."""

    def parse(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
        if not low <= value <= high:
            bound = f">= {low}" if value < low else f"<= {high}"
            raise ConfigError(f"{name} must be {bound}")
        return value

    return parse


def _as_num(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _as_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return dict(value)  # a copy: neither the caller's object nor a SCHEMA default is shared


def _nullable(parse):
    return lambda value, name: None if value is None else parse(value, name)


def _one_of(*choices):
    def parse(value, name: str):
        if value not in choices:
            raise ConfigError(f"{name} {value!r} not in {choices}")
        return value

    return parse


def _section(section: str):
    """Parser of a nested object whose fields join the enclosing ones."""
    return lambda value, name: _parse_section(section, value)


def _roster(value, name: str) -> tuple[RosterEntry, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError("'traders' must be a non-empty list")
    roster = tuple(_roster_entry(i, entry) for i, entry in enumerate(value))
    if sum(entry.count for entry in roster) > MAX_TRADERS:
        raise ConfigError(f"traders: total count must be <= {MAX_TRADERS}")
    return roster


def _roster_entry(i: int, raw) -> RosterEntry:
    return RosterEntry(**_parse_section("trader", raw, f"traders[{i}]"))


# section -> (JSON key, RunConfig field, parser, default).  A default is a
# JSON value and goes through the parser like a given one; a field of None
# marks a nested section, whose parsed fields join its parent's.
SCHEMA = {
    "config": (
        ("market", None, _section("market"), REQUIRED),
        ("traders", "traders", _roster, REQUIRED),
        ("outcome", "outcome", _int_in(), 0),
        ("seeds", None, _section("seeds"), {"count": 100}),
        ("arrival_order", "arrival_order", _one_of("round_robin", "sequential"),
         "round_robin"),
        ("stream_length", "stream_length", _nullable(_int_in(1)), None),
        ("adaptive", None, _section("adaptive"), {"enabled": False}),
    ),
    "market": (
        ("d", "d", _int_in(1, MAX_D), REQUIRED),
        ("epsilon", "epsilon", _as_num, REQUIRED),
        ("alpha", "alpha", _as_num, REQUIRED),
        ("gamma", "gamma", _as_num, REQUIRED),
        ("T", "T", _int_in(2, MAX_T), REQUIRED),
        ("fee", "fee", _nullable(_as_num), None),
        ("lambda", "lam", _nullable(_as_num), None),
        ("noise_off", "noise_off", _as_bool, False),
        ("allow_unsafe_lambda", "allow_unsafe_lambda", _as_bool, False),
    ),
    "seeds": (
        ("start", "seeds_start", _int_in(0), 0),
        ("count", "seeds_count", _int_in(1), REQUIRED),
    ),
    "adaptive": (
        ("enabled", "adaptive", _as_bool, True),
        ("stage_override", "stage_override", _nullable(_int_in(2, MAX_T)), None),
        ("max_stages", "max_stages", _int_in(), 3),
    ),
    "trader": (
        ("kind", "kind", _one_of(*STRATEGY_KINDS), REQUIRED),
        ("count", "count", _int_in(1), 1),
        ("params", "params", _as_object, {}),
    ),
}


def _parse_section(section: str, raw, label: str | None = None) -> dict:
    """Parse one JSON object against SCHEMA[section] into RunConfig fields."""
    label = label or section
    raw = _as_object(raw, label)
    rows = SCHEMA[section]
    unknown = sorted(set(raw) - {key for key, *_ in rows})
    if unknown:
        raise ConfigError(f"unknown {label} fields: {unknown}")
    prefix = "" if section == "config" else f"{label}."
    out: dict = {}
    for key, name, parse, default in rows:
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"missing required field {key!r} in {label}")
        value = parse(raw.get(key, default), prefix + key)
        if name is None:
            out.update(value)
        else:
            out[name] = value
    return out


def _build_stream(config: RunConfig, rngs: list[np.random.Generator], length: int):
    """Lazily expand the roster into the sequence of potential arrivals.

    round_robin cycles through the instances; sequential exhausts each
    instance's turn count in roster order.  config.stream_length, when set,
    replaces the default length (the horizon the run can fill).
    """
    entries = [entry for entry in config.traders for _ in range(entry.count)]
    instances = [make_strategy(e.kind, e.params, config.d, rng) for e, rng in zip(entries, rngs)]
    length = config.stream_length or length
    if config.arrival_order == "sequential":
        per = max(1, math.ceil(length / len(instances)))
        turns = itertools.chain.from_iterable(itertools.repeat(i, per) for i in instances)
    else:
        turns = itertools.cycle(instances)
    return itertools.islice(turns, length)


def _actor_rngs(seed: int, n_strategies: int) -> tuple[np.random.Generator, list]:
    """Independent substreams: child 0 drives the noise trader, 1.. the strategies."""
    children = np.random.SeedSequence(seed).spawn(n_strategies + 1)
    noise_rng = np.random.default_rng(children[0])
    strat_rngs = [np.random.default_rng(c) for c in children[1:]]
    return noise_rng, strat_rngs


def run_trial(config: RunConfig, seed: int) -> TrialMetrics:
    """One deterministic simulated run of the config's markets."""
    markets = config.markets()
    n_instances = sum(entry.count for entry in config.traders)
    noise_rng, strat_rngs = _actor_rngs(seed, n_instances)
    stream = _build_stream(config, strat_rngs, sum(m.T for m in markets))
    result = run_adaptive(markets, stream, config.outcome, seed=noise_rng)
    ledger, parts = result.ledger, result.stages
    norms = [p.mean_bundle_l2 for p in parts if p.arrivals > 0]
    return TrialMetrics(
        seed=seed,
        arrivals=ledger.arrivals,
        stages_completed=sum(p.is_full for p in parts),
        designer_loss=ledger.designer_loss,
        mm_loss=ledger.mm_loss,
        ntl=ledger.ntl,
        fees=ledger.fees,
        max_price_gap=max(p.max_price_gap for p in parts),
        max_share_gap=max(p.max_share_gap for p in parts),
        mean_bundle_l2=float(np.mean(norms)) if norms else 0.0,
    )


def run_trials(
    config: RunConfig,
    out_dir: str | None = None,
    seeds: range | None = None,
    parallel: int = 1,
) -> list[TrialMetrics]:
    """Run every seed, optionally in parallel, and write metrics artifacts.

    Rows land in metrics.jsonl in seed order regardless of scheduling, so
    output bytes depend only on (config, seeds).  Every seed must be a
    non-negative integer, as in a config's seeds section; any other is a
    ConfigError before a trial runs.
    """
    if seeds is None:
        seeds = range(config.seeds_start, config.seeds_start + config.seeds_count)
    parse_seed = _int_in(0)
    seeds = [parse_seed(seed, "seed") for seed in seeds]
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            metrics = list(pool.map(run_trial, itertools.repeat(config), seeds))
    else:
        metrics = [run_trial(config, s) for s in seeds]
    if out_dir is not None:
        write_outputs(out_dir, config, metrics)
    return metrics


def write_outputs(out_dir: str, config: RunConfig, metrics: list[TrialMetrics]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.jsonl"), "w", encoding="utf-8", newline="\n") as fh:
        for m in metrics:
            fh.write(json.dumps(m.to_dict(), sort_keys=True))
            fh.write("\n")
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config.resolved(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(summarize_csv(metrics))


def summarize_csv(metrics: list[TrialMetrics]) -> str:
    """Derive the summary table (mean/se/min/max per metric) from the rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "n", "mean", "se", "min", "max"])
    rows = [m.to_dict() for m in metrics]
    n = len(rows)
    for name in METRIC_FIELDS:
        if name == "seed":
            continue
        values = np.array([r[name] for r in rows], dtype=float)
        se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        writer.writerow(
            [
                name,
                n,
                repr(float(np.mean(values))),
                repr(se),
                repr(float(np.min(values))),
                repr(float(np.max(values))),
            ]
        )
    return buf.getvalue()


def load_metrics(path: str) -> list[dict]:
    """Read metrics rows back from a run directory or a .jsonl file."""
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.jsonl")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable verdict of one statistical check."""

    check: str
    passed: bool
    observed: float
    threshold: float
    n: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


MIN_TRIALS = 100


def _trial_count(rows: list[dict]) -> int:
    n = len(rows)
    if n < MIN_TRIALS:
        raise InsufficientDataError(f"need >= {MIN_TRIALS} trials, got {n}")
    return n


def _exceedance(
    check: str, rows: list[dict], key: str, bound: float, gamma: float, detail: dict
) -> VerifyReport:
    """Fraction of rows whose key exceeds bound, against gamma + 3 binomial SE.

    The SE is computed at the nominal rate gamma.
    """
    n = _trial_count(rows)
    exceed = sum(1 for r in rows if r[key] > bound) / n
    se = math.sqrt(gamma * (1.0 - gamma) / n)
    threshold = gamma + 3.0 * se
    return VerifyReport(check, exceed <= threshold, exceed, threshold, n, {**detail, "se": se})


def _mean_within(check: str, rows: list[dict], key: str, bound, detail: dict) -> VerifyReport:
    """Mean of key over the rows against bound + 3 SE of that mean.

    bound is one number, or one bound per row whose mean is used.
    """
    n = _trial_count(rows)
    values = np.array([r[key] for r in rows], dtype=float)
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    threshold = float(np.mean(bound)) + 3.0 * se
    return VerifyReport(check, mean <= threshold, mean, threshold, n, {**detail, "se": se})


def verify_precision(rows: list[dict], alpha: float, gamma: float) -> VerifyReport:
    """Fraction of seeds whose worst price gap exceeds alpha, against gamma."""
    return _exceedance(
        "precision", rows, "max_price_gap", alpha, gamma, {"alpha": alpha, "gamma": gamma}
    )


def verify_budget(rows: list[dict], B1: float, lam: float) -> VerifyReport:
    """Mean designer loss against the worst-case bound B1 / lam (+ 3 SE)."""
    bound = B1 / lam
    return _mean_within("budget", rows, "designer_loss", bound, {"bound": bound})


def verify_share_accuracy(
    rows: list[dict], d: int, T: int, epsilon: float, gamma: float
) -> VerifyReport:
    """Share-vector accuracy: ||q - q_hat||_1 within the concentration bound.

    The bound is (4 sqrt(2) d ceil(log2 T) / epsilon) * ln(2 T d / gamma);
    the exceedance fraction must stay <= gamma + 3 binomial SE.
    """
    bound = (
        4.0 * math.sqrt(2.0) * d * tree_depth(T) / epsilon
    ) * math.log(2.0 * T * d / gamma)
    return _exceedance(
        "share_accuracy", rows, "max_share_gap", bound, gamma, {"bound": bound, "gamma": gamma}
    )


def verify_noise_loss(rows: list[dict], lam: float, K: float) -> VerifyReport:
    """Mean noise-trader loss against (T' log2 T' / 2) lam K per seed (+ 3 SE).

    K may be the closed-form bound or an empirical mean bundle norm.
    """
    bounds = [
        (r["arrivals"] * math.log2(r["arrivals"]) / 2.0) * lam * K if r["arrivals"] > 1 else 0.0
        for r in rows
    ]
    return _mean_within("noise_loss", rows, "ntl", bounds, {"K": K})


@dataclass(frozen=True)
class AuditReport:
    """Structural privacy audit results for (T, d, epsilon)."""

    T: int
    d: int
    epsilon: float
    sensitivity_max: float  # worst l1 partial-sum change over sampled neighbors
    sensitivity_ok: bool  # <= 2 (+ float slack)
    participation_counts: tuple[int, ...]  # per t' = 1..T
    participation_max: int
    depth: int  # ceil(log2 T)
    epsilon_multiplier: float  # participation_max / depth
    implied_epsilon: float  # epsilon * multiplier
    noise_scale: float
    noise_scale_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["participation_counts"] = list(self.participation_counts)
        return out


def privacy_audit(
    T: int, d: int, epsilon: float, n_pairs: int = 10_000, seed: int = 0
) -> AuditReport:
    """Check the structural facts behind the privacy guarantee.

    (i) every noise-covered partial sum of trades moves by at most 2 in l1
    between neighboring trade sequences (one arrival's bundle replaced);
    (ii) exact participation counts per arrival, with the implied
    worst-case epsilon multiplier count * (epsilon / ceil(log2 T)) reported
    rather than capped; (iii) the configured Laplace scale matches
    2 ceil(log2 T) / epsilon.
    """
    if not (1 <= T <= 2**14):
        raise InvalidParameterError("T must lie in [1, 2^14]")
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    rng = np.random.default_rng(seed)

    # random trade rows with l1 norm <= 1: random direction, random scale
    def trade_batch(n: int) -> np.ndarray:
        raw = rng.normal(size=(n, T, d))
        norms = np.sum(np.abs(raw), axis=2, keepdims=True)
        scale = rng.random((n, T, 1))
        return raw / np.maximum(norms, 1e-12) * scale

    ts = np.arange(1, T + 1)
    ss = np.array([s_flip(t) for t in ts])
    worst = 0.0
    chunk = max(1, min(n_pairs, 4_000_000 // (T * d)))
    done = 0
    while done < n_pairs:
        n = min(chunk, n_pairs - done)
        seqs = trade_batch(n)
        alts = trade_batch(n)
        idx = rng.integers(T, size=n)
        neighbors = seqs.copy()
        neighbors[np.arange(n), idx, :] = alts[np.arange(n), idx, :]
        # block sum over (s(t), t] = prefix[t] - prefix[s(t)]; diff the two runs
        diff = np.cumsum(neighbors - seqs, axis=1)
        prefix = np.concatenate([np.zeros((n, 1, d)), diff], axis=1)
        changes = np.sum(np.abs(prefix[:, ts, :] - prefix[:, ss, :]), axis=2)
        worst = max(worst, float(np.max(changes)))
        done += n
    sensitivity_ok = worst <= 2.0 + 1e-9

    counts = participation_table(T)
    participation_max = int(np.max(counts))
    depth = tree_depth(T)
    multiplier = participation_max / depth

    configured = noise_scale(T, epsilon)
    expected = 2.0 * depth / epsilon
    scale_ok = abs(configured - expected) <= 1e-12 * expected

    return AuditReport(
        T=T,
        d=d,
        epsilon=epsilon,
        sensitivity_max=worst,
        sensitivity_ok=sensitivity_ok,
        participation_counts=tuple(int(c) for c in counts),
        participation_max=participation_max,
        depth=depth,
        epsilon_multiplier=multiplier,
        implied_epsilon=epsilon * multiplier,
        noise_scale=configured,
        noise_scale_ok=scale_ok,
        passed=sensitivity_ok and scale_ok,
    )

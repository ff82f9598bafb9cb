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
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adaptive import run_adaptive, stage_schedule
from .errors import ConfigError, InsufficientDataError, InvalidParameterError
from .market import MarketParams, open_market
from .noise import (
    noise_scale,
    participation_table,
    s_flip,
    tree_depth,
)
from .traders import STRATEGY_KINDS, Strategy, drive_session, make_strategy

METRIC_FIELDS = (
    "seed",
    "arrivals",
    "stages_completed",
    "designer_loss",
    "mm_loss",
    "ntl",
    "fees",
    "max_price_gap",
    "max_share_gap",
    "mean_bundle_l2",
)


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


@dataclass(frozen=True)
class RosterEntry:
    kind: str
    count: int
    params: dict


@dataclass(frozen=True)
class RunConfig:
    """Validated simulation plan.  Unknown JSON fields are rejected."""

    d: int
    epsilon: float
    alpha: float
    gamma: float
    T: int
    traders: tuple[RosterEntry, ...]
    fee: float | None = None
    lam: float | None = None
    noise_off: bool = False
    allow_unsafe_lambda: bool = False
    outcome: int = 0
    seeds_start: int = 0
    seeds_count: int = 100
    arrival_order: str = "round_robin"
    stream_length: int | None = None
    adaptive: bool = False
    stage_override: int | None = None
    max_stages: int = 3

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        data = dict(raw)
        market = data.pop("market", None)
        if not isinstance(market, dict):
            raise ConfigError("config needs a 'market' object")
        market = dict(market)

        def take(src: dict, name: str, required: bool = False, default=None):
            if name in src:
                return src.pop(name)
            if required:
                raise ConfigError(f"missing required field {name!r}")
            return default

        kwargs: dict = {}
        kwargs["d"] = _as_int(take(market, "d", required=True), "market.d")
        kwargs["epsilon"] = _as_num(take(market, "epsilon", required=True), "market.epsilon")
        kwargs["alpha"] = _as_num(take(market, "alpha", required=True), "market.alpha")
        kwargs["gamma"] = _as_num(take(market, "gamma", required=True), "market.gamma")
        kwargs["T"] = _as_int(take(market, "T", required=True), "market.T")
        if "fee" in market:
            fee = market.pop("fee")
            kwargs["fee"] = None if fee is None else _as_num(fee, "market.fee")
        if "lambda" in market:
            lam = market.pop("lambda")
            kwargs["lam"] = None if lam is None else _as_num(lam, "market.lambda")
        kwargs["noise_off"] = _as_bool(
            take(market, "noise_off", default=False), "market.noise_off"
        )
        kwargs["allow_unsafe_lambda"] = _as_bool(
            take(market, "allow_unsafe_lambda", default=False), "market.allow_unsafe_lambda"
        )
        if market:
            raise ConfigError(f"unknown market fields: {sorted(market)}")

        roster_raw = take(data, "traders", required=True)
        if not isinstance(roster_raw, list) or not roster_raw:
            raise ConfigError("'traders' must be a non-empty list")
        roster = []
        for i, entry in enumerate(roster_raw):
            entry = dict(_as_object(entry, f"traders[{i}]"))
            kind = take(entry, "kind", required=True)
            if kind not in STRATEGY_KINDS:
                raise ConfigError(f"traders[{i}].kind {kind!r} not in {STRATEGY_KINDS}")
            count = _as_int(take(entry, "count", default=1), f"traders[{i}].count")
            if count < 1:
                raise ConfigError(f"traders[{i}].count must be >= 1")
            params = take(entry, "params", default={})
            if not isinstance(params, dict):
                raise ConfigError(f"traders[{i}].params must be an object")
            if "d" in params:
                raise ConfigError(f"traders[{i}].params.d is set by market.d")
            if entry:
                raise ConfigError(f"unknown traders[{i}] fields: {sorted(entry)}")
            roster.append(RosterEntry(kind=kind, count=count, params=params))
        kwargs["traders"] = tuple(roster)

        if "outcome" in data:
            kwargs["outcome"] = _as_int(data.pop("outcome"), "outcome")
        if "seeds" in data:
            seeds = dict(_as_object(data.pop("seeds"), "seeds"))
            kwargs["seeds_start"] = _as_int(take(seeds, "start", default=0), "seeds.start")
            kwargs["seeds_count"] = _as_int(take(seeds, "count", required=True), "seeds.count")
            if seeds:
                raise ConfigError(f"unknown seeds fields: {sorted(seeds)}")
        if "arrival_order" in data:
            order = data.pop("arrival_order")
            if order not in ("round_robin", "sequential"):
                raise ConfigError("arrival_order must be round_robin or sequential")
            kwargs["arrival_order"] = order
        if "stream_length" in data:
            raw_len = data.pop("stream_length")
            if raw_len is not None:
                kwargs["stream_length"] = _as_int(raw_len, "stream_length")
                if raw_len < 1:
                    raise ConfigError("stream_length must be >= 1")
        adaptive = data.pop("adaptive", None)
        if adaptive is not None:
            adaptive = dict(_as_object(adaptive, "adaptive"))
            kwargs["adaptive"] = _as_bool(
                take(adaptive, "enabled", default=True), "adaptive.enabled"
            )
            if "stage_override" in adaptive:
                so = adaptive.pop("stage_override")
                kwargs["stage_override"] = None if so is None else _as_int(so, "stage_override")
            if "max_stages" in adaptive:
                kwargs["max_stages"] = _as_int(adaptive.pop("max_stages"), "max_stages")
            if adaptive:
                raise ConfigError(f"unknown adaptive fields: {sorted(adaptive)}")
        if data:
            raise ConfigError(f"unknown config fields: {sorted(data)}")

        cfg = cls(**kwargs)
        if cfg.adaptive and cfg.d < 2:
            raise ConfigError("adaptive runs need d >= 2 (B1 = ln d must be positive)")
        cfg.market_params(validate_only=True)
        rng = np.random.default_rng(0)  # throwaway: construction draws nothing
        for i, entry in enumerate(cfg.traders):
            try:
                _strategy(entry, cfg.d, rng)
            except InvalidParameterError as exc:
                raise ConfigError(f"traders[{i}]: {exc}") from exc
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def market_params(self, validate_only: bool = False) -> MarketParams:
        try:
            params = MarketParams(
                d=self.d, epsilon=self.epsilon, alpha=self.alpha, gamma=self.gamma,
                T=self.T, fee=self.fee, lam=self.lam, noise_off=self.noise_off,
                allow_unsafe_lambda=self.allow_unsafe_lambda,
            )
        except InvalidParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if not (0 <= self.outcome < self.d):
            raise ConfigError(f"outcome must lie in [0, {self.d})")
        if self.seeds_count < 1:
            raise ConfigError("seeds.count must be >= 1")
        return params

    def resolved(self) -> dict:
        """Everything a verifier needs, as written to resolved_config.json."""
        params = self.market_params()
        return {
            "d": self.d,
            "epsilon": self.epsilon,
            "alpha": self.alpha,
            "gamma": self.gamma,
            "T": self.T,
            "fee": params.fee,
            "lambda": params.lam,
            "lambda_star": params.lam_star,
            "B1": params.B1,
            "noise_off": self.noise_off,
            "outcome": self.outcome,
            "adaptive": self.adaptive,
            "stage_override": self.stage_override,
            "max_stages": self.max_stages,
            "seeds": {"start": self.seeds_start, "count": self.seeds_count},
        }


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _as_num(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return float(value)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false")
    return value


def _as_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    return value


def _strategy(entry: RosterEntry, d: int, rng: np.random.Generator) -> Strategy:
    return make_strategy(entry.kind, {**entry.params, "d": d}, rng)


def _build_stream(config: RunConfig, rngs: list[np.random.Generator]) -> list:
    """Expand the roster into the sequence of potential arrivals.

    round_robin cycles through the instances; sequential exhausts each
    instance's turn count in roster order.  Stream length defaults to T
    (one potential arrival per slot) for single markets and to the summed
    stage sizes for adaptive runs.
    """
    instances = []
    for entry in config.traders:
        for _ in range(entry.count):
            instances.append(_strategy(entry, config.d, rngs[len(instances)]))
    length = config.stream_length
    if length is None:
        if config.adaptive:
            base = config.stage_override
            if base is not None:
                length = base * config.max_stages
            else:
                sched = stage_schedule(
                    math.log(config.d), config.d, config.alpha, config.gamma,
                    config.epsilon, max_stages=config.max_stages,
                )
                length = sum(s.T for s in sched.stages)
        else:
            length = config.T
    if config.arrival_order == "sequential":
        per = max(1, math.ceil(length / len(instances)))
        stream = [inst for inst in instances for _ in range(per)]
        return stream[:length]
    return [instances[i % len(instances)] for i in range(length)]


def _actor_rngs(seed: int, n_strategies: int) -> tuple[np.random.Generator, list]:
    """Independent substreams: child 0 drives the noise trader, 1.. the strategies."""
    children = np.random.SeedSequence(seed).spawn(n_strategies + 1)
    noise_rng = np.random.default_rng(children[0])
    strat_rngs = [np.random.default_rng(c) for c in children[1:]]
    return noise_rng, strat_rngs


def run_trial(config: RunConfig, seed: int) -> TrialMetrics:
    """One deterministic simulated market (or staged market) run."""
    n_instances = sum(entry.count for entry in config.traders)
    noise_rng, strat_rngs = _actor_rngs(seed, n_instances)
    stream = _build_stream(config, strat_rngs)

    if config.adaptive:
        sched = stage_schedule(
            math.log(config.d), config.d, config.alpha, config.gamma,
            config.epsilon, max_stages=config.max_stages,
            t1_override=config.stage_override,
        )
        result = run_adaptive(sched, stream, config.outcome, seed=noise_rng)
        ledger, parts = result.ledger, result.stages
        stages_completed = sum(1 for s in parts if s.completed)
    else:
        session = open_market(config.market_params(), rng=noise_rng)
        drive_session(session, iter(stream))
        ledger, parts = session.close(config.outcome), [session]
        stages_completed = 1 if session.is_full else 0
    # stage results and a flat session expose the same per-market metrics
    norms = [p.mean_bundle_l2 for p in parts if p.arrivals > 0]
    return TrialMetrics(
        seed=seed,
        arrivals=ledger.arrivals,
        stages_completed=stages_completed,
        designer_loss=ledger.designer_loss,
        mm_loss=ledger.mm_loss,
        ntl=ledger.ntl,
        fees=ledger.fees,
        max_price_gap=max(p.max_price_gap for p in parts),
        max_share_gap=max(p.max_share_gap for p in parts),
        mean_bundle_l2=float(np.mean(norms)) if norms else 0.0,
    )


def _trial_star(args) -> TrialMetrics:
    return run_trial(*args)


def run_trials(
    config: RunConfig,
    out_dir: str | None = None,
    seeds: range | None = None,
    parallel: int = 1,
) -> list[TrialMetrics]:
    """Run every seed, optionally in parallel, and write metrics artifacts.

    Rows land in metrics.jsonl in seed order regardless of scheduling, so
    output bytes depend only on (config, seeds).
    """
    if seeds is None:
        seeds = range(config.seeds_start, config.seeds_start + config.seeds_count)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            metrics = list(pool.map(_trial_star, [(config, s) for s in seeds]))
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
        return {
            "check": self.check,
            "passed": bool(self.passed),
            "observed": self.observed,
            "threshold": self.threshold,
            "n": self.n,
            "detail": self.detail,
        }


MIN_TRIALS = 100


def verify_precision(rows: list[dict], alpha: float, gamma: float) -> VerifyReport:
    """Fraction of seeds whose worst price gap exceeds alpha, against gamma.

    Passes when the exceedance is <= gamma + 3 binomial standard errors
    (SE computed at the nominal rate gamma).
    """
    n = len(rows)
    if n < MIN_TRIALS:
        raise InsufficientDataError(f"need >= {MIN_TRIALS} trials, got {n}")
    exceed = sum(1 for r in rows if r["max_price_gap"] > alpha) / n
    se = math.sqrt(gamma * (1.0 - gamma) / n)
    threshold = gamma + 3.0 * se
    return VerifyReport(
        check="precision",
        passed=exceed <= threshold,
        observed=exceed,
        threshold=threshold,
        n=n,
        detail={"alpha": alpha, "gamma": gamma, "se": se},
    )


def verify_budget(rows: list[dict], B1: float, lam: float) -> VerifyReport:
    """Mean designer loss against the worst-case bound B1 / lam (+ 3 SE)."""
    n = len(rows)
    if n < MIN_TRIALS:
        raise InsufficientDataError(f"need >= {MIN_TRIALS} trials, got {n}")
    losses = np.array([r["designer_loss"] for r in rows], dtype=float)
    mean = float(np.mean(losses))
    se = float(np.std(losses, ddof=1) / math.sqrt(n))
    bound = B1 / lam
    return VerifyReport(
        check="budget",
        passed=mean <= bound + 3.0 * se,
        observed=mean,
        threshold=bound + 3.0 * se,
        n=n,
        detail={"bound": bound, "se": se},
    )


def verify_share_accuracy(
    rows: list[dict], d: int, T: int, epsilon: float, gamma: float
) -> VerifyReport:
    """Share-vector accuracy: ||q - q_hat||_1 within the concentration bound.

    The bound is (4 sqrt(2) d ceil(log2 T) / epsilon) * ln(2 T d / gamma);
    the exceedance fraction must stay <= gamma + 3 binomial SE.
    """
    n = len(rows)
    if n < MIN_TRIALS:
        raise InsufficientDataError(f"need >= {MIN_TRIALS} trials, got {n}")
    bound = (
        4.0 * math.sqrt(2.0) * d * tree_depth(T) / epsilon
    ) * math.log(2.0 * T * d / gamma)
    exceed = sum(1 for r in rows if r["max_share_gap"] > bound) / n
    se = math.sqrt(gamma * (1.0 - gamma) / n)
    threshold = gamma + 3.0 * se
    return VerifyReport(
        check="share_accuracy",
        passed=exceed <= threshold,
        observed=exceed,
        threshold=threshold,
        n=n,
        detail={"bound": bound, "gamma": gamma, "se": se},
    )


def verify_noise_loss(rows: list[dict], lam: float, K: float) -> VerifyReport:
    """Mean noise-trader loss against (T' log2 T' / 2) lam K per seed (+ 3 SE).

    K may be the closed-form bound or an empirical mean bundle norm.
    """
    n = len(rows)
    if n < MIN_TRIALS:
        raise InsufficientDataError(f"need >= {MIN_TRIALS} trials, got {n}")
    ntl = np.array([r["ntl"] for r in rows], dtype=float)
    bounds = np.array(
        [
            (r["arrivals"] * math.log2(r["arrivals"]) / 2.0) * lam * K
            if r["arrivals"] > 1
            else 0.0
            for r in rows
        ]
    )
    mean = float(np.mean(ntl))
    se = float(np.std(ntl, ddof=1) / math.sqrt(n))
    threshold = float(np.mean(bounds)) + 3.0 * se
    return VerifyReport(
        check="noise_loss",
        passed=mean <= threshold,
        observed=mean,
        threshold=threshold,
        n=n,
        detail={"K": K, "se": se},
    )


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

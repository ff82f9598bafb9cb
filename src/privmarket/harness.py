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

from .adaptive import MAX_STAGES, StageSchedule, run_adaptive, stage_schedule
from .errors import ConfigError, InsufficientDataError, InvalidParameterError
from .errors import _as_num, _int_in
# open_market and drive_session run inside run_adaptive; they stay harness
# globals because the benchmark tracer patches them where they are looked up.
from .market import MarketParams, loss_bounds, open_market, share_gap_scale
from .noise import noise_scale, participation_table, tree_depth
from .traders import ARRIVAL_ORDERS, STRATEGY_KINDS, Stream, drive_session, make_strategy
from .traders import strategy_args

MAX_D = 1024
"""Largest market.d a config may ask for.  A default belief allocates d
floats and every best-response decision prices 2d trades of d coordinates,
so d is bounded before anything is built from it."""

MAX_T = 2**30
"""Largest horizon a config may ask for: market.T, adaptive.stage_override,
the total arrivals of a stage plan, and stream_length.  A trial steps until
its markets fill or its stream ends, so both are bounded before a trial
runs.  The paper-scale plan
at default sizing (d=2, three stages) is 79,925,139 arrivals, well inside
the cap."""

MAX_TRADERS = 10_000
"""Largest total roster count.  Every trial builds one strategy per instance,
and one seed per random instance, so the count is bounded before a trial runs."""

MAX_SEEDS = 100_000
"""Most seeds one run may ask for (seeds.count, run --seeds, run_trials).  A
run holds one TrialMetrics row per seed until it writes them, about 0.7 kB a
seed with the summary's dicts, so the count is bounded before a trial runs."""

AUDIT_ENTRIES = 4_000_000
"""Trade entries (pairs x T x d) in one chunk of the privacy audit.  A chunk
draws at least one pair's (T, d) arrays, so T * d is bounded by it."""

AUDIT_SAMPLED = 2**31
"""Most trade entries (pairs x T x d) one privacy audit may sample, so its
time is bounded at every shape: 1,048,576 pairs at T = 1024, d = 2 took
105 s on a 2-core machine, 537 at T = 16384, d = 244 took 95 s."""


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
    """count instances of kind.  params is the roster object as given;
    RunConfig.from_dict parses it once, with traders.strategy_args, into
    args, the values a trial builds every instance from."""

    kind: str
    count: int
    params: dict
    args: tuple = ()


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
        horizon = sum(m.T for m in cfg.markets())  # a flat T is capped by the schema
        if horizon > MAX_T:
            raise ConfigError(f"adaptive: the stage plan's {horizon} arrivals exceed {MAX_T}")
        roster = tuple(
            dataclasses.replace(entry, args=_checked(
                f"traders[{i}]", strategy_args, entry.kind, entry.params, cfg.d))
            for i, entry in enumerate(cfg.traders))
        return dataclasses.replace(cfg, traders=roster)

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
        markets = self.markets()
        if self.adaptive:
            out["fee"] = self.alpha
            out["stages"] = [
                {"k": k, "T": s.T, "alpha": s.alpha, "gamma": s.gamma, "lambda": s.lam}
                for k, s in enumerate(markets, start=1)
            ]
        else:
            (params,) = markets
            out.update({"T": self.T, "fee": params.fee, "lambda": params.lam,
                        "lambda_star": params.lam_star, "noise_off": self.noise_off})
        return out


def _checked(section: str, build, *args, **kwargs):
    """Call a validating constructor or parser; its errors become ConfigErrors
    that name section."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, InvalidParameterError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


REQUIRED = object()  # SCHEMA default of a field that must be present


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
    roster = tuple(
        RosterEntry(**_parse_section("trader", raw, f"traders[{i}]"))
        for i, raw in enumerate(value)
    )
    if sum(entry.count for entry in roster) > MAX_TRADERS:
        raise ConfigError(f"traders: total count must be <= {MAX_TRADERS}")
    return roster


# section -> (JSON key, RunConfig field, parser, default).  A default is a
# JSON value and goes through the parser like a given one; a field of None
# marks a nested section, whose parsed fields join its parent's.
SCHEMA = {
    "config": (
        ("market", None, _section("market"), REQUIRED),
        ("traders", "traders", _roster, REQUIRED),
        ("outcome", "outcome", _int_in(), 0),
        ("seeds", None, _section("seeds"), {"count": 100}),
        ("arrival_order", "arrival_order", _one_of(*ARRIVAL_ORDERS), "round_robin"),
        ("stream_length", "stream_length", _nullable(_int_in(1, MAX_T)), None),
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
        ("count", "seeds_count", _int_in(1, MAX_SEEDS), REQUIRED),
    ),
    "adaptive": (
        ("enabled", "adaptive", _as_bool, True),
        ("stage_override", "stage_override", _nullable(_int_in(2, MAX_T)), None),
        ("max_stages", "max_stages", _int_in(1, MAX_STAGES), 3),
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


def run_trial(config: RunConfig, seed: int) -> TrialMetrics:
    """One deterministic simulated run of the config's markets."""
    markets = config.markets()
    roster = [entry for entry in config.traders for _ in range(entry.count)]
    # independent substreams: child 0 drives the noise, child 1 + i instance i;
    # child j of SeedSequence(seed).spawn(n) is SeedSequence(seed, spawn_key=(j,))
    stream = Stream(
        [make_strategy(entry.kind, entry.args, np.random.SeedSequence(seed, spawn_key=(i,))
                       if entry.kind == "random" else None)
         for i, entry in enumerate(roster, 1)],
        config.stream_length or sum(m.T for m in markets),
        config.arrival_order,
    )
    result = run_adaptive(markets, stream, config.outcome,
                          seed=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))))
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
    output bytes depend only on (config, seeds).  seeds is a range or a
    list of 1 to MAX_SEEDS non-negative integers, as in a config's seeds
    section; any other is a ConfigError before a trial runs.  parallel >= 1
    asks for worker processes; at most one per seed and per usable CPU start.
    """
    if seeds is None:
        seeds = range(config.seeds_start, config.seeds_start + config.seeds_count)
    seeds = seeds[: MAX_SEEDS + 1]  # len() of a range past sys.maxsize overflows
    if len(seeds) > MAX_SEEDS:
        raise ConfigError(f"the seeds exceed the cap of {MAX_SEEDS}")
    if len(seeds) == 0:
        raise ConfigError("a run needs at least one seed")
    parse_seed = _int_in(0)
    seeds = [parse_seed(seed, "seed") for seed in seeds]
    workers = min(_int_in(1)(parallel, "parallel"), len(seeds), _usable_cpus())
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write run directory: {exc}") from exc
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(run_trial, itertools.repeat(config), seeds))
    else:
        metrics = [run_trial(config, s) for s in seeds]
    if out_dir is not None:
        write_outputs(out_dir, config, metrics)
    return metrics


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        stats = (np.mean(values), se, np.min(values), np.max(values))
        writer.writerow([name, n, *(repr(float(x)) for x in stats)])
    return buf.getvalue()


def load_metrics(path: str) -> list[dict]:
    """Read metrics rows back from a run directory or a .jsonl file."""
    if os.path.isdir(path):
        path = os.path.join(path, "metrics.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_run_dir(path: str) -> tuple[list[dict], MarketParams]:
    """Metrics rows and flat market of a run directory, read through the config's
    parsers: every metric a finite number, the market fields of
    resolved_config.json a valid MarketParams (lam may pass lambda_star).
    Anything else, and a staged run, is a ConfigError."""
    try:
        rows = load_metrics(path)
        with open(os.path.join(path, "resolved_config.json"), encoding="utf-8") as fh:
            resolved = _as_object(json.load(fh), "resolved_config.json")
    except OSError as exc:
        raise ConfigError(f"cannot read run directory: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"malformed run directory: {exc}") from exc
    for i, row in enumerate(rows):
        row = _as_object(row, f"metrics row {i}")
        for name in METRIC_FIELDS:
            _as_num(row.get(name), f"metrics row {i}: {name}")
    if _as_bool(resolved.get("adaptive"), "resolved_config.json.adaptive"):
        raise ConfigError("adaptive run: no flat-market bound applies to a staged market")
    market = {key: resolved[key] for key, *_ in SCHEMA["market"] if key in resolved}
    fields = _parse_section("market", market, "resolved_config.json")
    fields["allow_unsafe_lambda"] = True
    return rows, _checked("resolved_config.json", MarketParams, **fields)


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

    The bound is share_gap_scale(T, d, gamma) / epsilon; the exceedance
    fraction must stay <= gamma + 3 binomial SE.
    """
    bound = share_gap_scale(T, d, gamma) / epsilon
    return _exceedance(
        "share_accuracy", rows, "max_share_gap", bound, gamma, {"bound": bound, "gamma": gamma}
    )


def verify_noise_loss(rows: list[dict], lam: float, K: float) -> VerifyReport:
    """Mean noise-trader loss against loss_bounds' ntl_bound per seed (+ 3 SE),
    (T' log2 T' / 2) lam K at the seed's T' arrivals.

    K may be the closed-form bound or an empirical mean bundle norm.
    """
    bounds = [loss_bounds(lam, r["arrivals"], K, fee=0.0, B1=0.0).ntl_bound for r in rows]
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
    T: int, d: int, epsilon: float, n_pairs: int | None = None, seed: int = 0
) -> AuditReport:
    """Check the structural facts behind the privacy guarantee.

    (i) every noise-covered partial sum of trades moves by at most 2 in l1
    between neighboring trade sequences (one arrival's bundle replaced);
    (ii) exact participation counts per arrival, with the implied
    worst-case epsilon multiplier count * (epsilon / ceil(log2 T)) reported
    rather than capped; (iii) the configured Laplace scale matches
    2 ceil(log2 T) / epsilon.  T * d may not exceed AUDIT_ENTRIES, and it
    samples n_pairs >= 1 pairs, with n_pairs * T * d <= AUDIT_SAMPLED (by
    default 10,000, or the most that cap allows).
    """
    if not (1 <= T <= 2**14):
        raise InvalidParameterError("T must lie in [1, 2^14]")
    if not 1 <= d <= AUDIT_ENTRIES // T:
        raise InvalidParameterError(
            f"d must lie in [1, {AUDIT_ENTRIES // T}]: T * d <= {AUDIT_ENTRIES}")
    if n_pairs is None:
        n_pairs = min(10_000, AUDIT_SAMPLED // (T * d))
    if not 1 <= n_pairs <= AUDIT_SAMPLED // (T * d):
        raise InvalidParameterError(
            f"n_pairs must lie in [1, {AUDIT_SAMPLED // (T * d)}]: "
            f"n_pairs * T * d <= {AUDIT_SAMPLED}")
    configured = noise_scale(T, epsilon)  # a bad epsilon raises here, before any draw
    rng = np.random.default_rng(seed)
    # random trade rows with l1 norm <= 1 (random direction and scale); a
    # pair's sequences differ at its slot only, so each partial sum covering
    # the slot moves by that row's difference and the others by exactly 0
    worst = 0.0
    chunk = min(n_pairs, AUDIT_ENTRIES // (T * d))
    # every chunk refills the same two pairs of buffers: one chunk's draws live at a time
    buffers = [(np.empty((chunk, T, d)), np.empty((chunk, T, 1))) for _ in range(2)]
    done = 0
    while done < n_pairs:
        n = min(chunk, n_pairs - done)
        for raw, scale in buffers:
            rng.standard_normal(out=raw[:n])
            rng.random(out=scale[:n])
        at = np.arange(n), rng.integers(T, size=n)
        seq, alt = (raw[at] / np.maximum(np.sum(np.abs(raw[at]), axis=1, keepdims=True), 1e-12)
                    * scale[at] for raw, scale in buffers)
        worst = max(worst, float(np.max(np.sum(np.abs(alt - seq), axis=1))))
        done += n
    sensitivity_ok = worst <= 2.0 + 1e-9

    counts = participation_table(T)
    participation_max = int(np.max(counts))
    depth = tree_depth(T)
    multiplier = participation_max / depth

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

"""Bounded-budget differentially private prediction markets.

A cost-function market maker publishes prices through a noise trader whose
binary-counter bundle schedule keeps the full trade history differentially
private under continual observation; transaction fees retire the arbitrage
those noise trades would otherwise hand out, and a stage-doubling wrapper
bounds the designer's total loss without knowing the horizon.
"""

from .adaptive import (
    AdaptiveResult,
    StageSchedule,
    budget_bound,
    minimal_T,
    run_adaptive,
    stage_schedule,
    transition,
    verify_stage_inequalities,
)
from .cost import ScaledCost
from .errors import (
    ConfigError,
    InsufficientDataError,
    InvalidParameterError,
    InvalidStateError,
    MarketClosedError,
    PrivMarketError,
    StrategyBugError,
    TradeRejectedError,
)
from .harness import (
    METRIC_FIELDS,
    AuditReport,
    RosterEntry,
    RunConfig,
    TrialMetrics,
    VerifyReport,
    load_metrics,
    privacy_audit,
    run_trial,
    run_trials,
    summarize_csv,
    verify_budget,
    verify_noise_loss,
    verify_precision,
    verify_share_accuracy,
    write_outputs,
)
from .market import (
    Ledger,
    LossBounds,
    MarketParams,
    MarketSession,
    lambda_star,
    loss_bounds,
    noise_scale_K,
    open_market,
)
from .noise import (
    NoiseLedger,
    noise_scale,
    participation_table,
    s_flip,
    sample_bundle,
    tree_depth,
)
from .traders import (
    STRATEGY_KINDS,
    Abstainer,
    ArbitrageHunter,
    BeliefTrader,
    Herd,
    RandomTrader,
    Strategy,
    StrategyContext,
    best_response,
    drive_session,
    make_strategy,
    maximize_profit,
    step_strategy,
)

__version__ = "0.1.0"

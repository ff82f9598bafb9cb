"""Strategy behavior: best response, fee deterrence, information hygiene."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from privmarket import (
    Abstainer,
    ArbitrageHunter,
    BeliefTrader,
    ConfigError,
    Herd,
    InvalidParameterError,
    MarketParams,
    PrivMarketError,
    RandomTrader,
    STRATEGY_KINDS,
    ScaledCost,
    Strategy,
    StrategyBugError,
    StrategyContext,
    Stream,
    best_response,
    drive_session,
    make_strategy,
    maximize_profit,
    open_market,
    step_strategy,
    strategy_args,
)

from privmarket import cost as cost_module
from privmarket.cost import TALL_ROWS, unit_trades
from privmarket.traders import RANDOM_CHUNK

from oracles import reference_cost


def _ctx(q_hat, lam=0.01, fee=0.0, t=1):
    q_hat = np.asarray(q_hat, dtype=float)
    cost = ScaledCost(d=q_hat.shape[0], lam=lam)
    return StrategyContext(t=t, q_hat=q_hat, p_hat=cost.prices(q_hat), fee=fee, cost=cost)


def test_context_exposes_only_published_data():
    # the context field set is the information boundary; widening it is an
    # API change that needs a deliberate decision, not an accident.
    # unit_costs holds the public cost function's values at q_hat plus the
    # unit trades, so it adds nothing a strategy could not price itself
    names = {f.name for f in dataclasses.fields(StrategyContext)}
    assert names == {"t", "q_hat", "p_hat", "fee", "cost", "unit_costs"}
    # drive_session hands one context to every reader until something is
    # booked, so a strategy cannot rebind its fields
    ctx = _ctx([0.0, 1.0])
    assert (ctx.t, ctx.fee, ctx.unit_costs) == (1, 0.0, None)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ctx, name, None)
    moved = dataclasses.replace(ctx, t=7)
    assert moved.t == 7 and vars(moved).keys() == names


def _expected_profit(ctx, belief, dq):
    """<dq, belief> minus the trade's cost at the published state, by the scalar reference."""
    return float(dq @ belief) - (
        reference_cost(ctx.cost, ctx.q_hat + dq) - reference_cost(ctx.cost, ctx.q_hat)
    )


def test_expected_profit_worked_value():
    ctx = _ctx([0.0, 0.0], lam=0.01)
    profit = _expected_profit(ctx, np.array([0.8, 0.2]), np.array([1.0, 0.0]))
    assert profit == pytest.approx(0.29875000520830786, abs=1e-12)
    # the full unit buy is also the package's best trade here, at the same profit
    dq, best = maximize_profit(ctx, np.array([0.8, 0.2]))
    assert np.array_equal(dq, [1.0, 0.0])
    assert best == pytest.approx(0.29875000520830786, abs=1e-12)


def test_best_response_worked_example():
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.1)
    dq = best_response(ctx, np.array([0.8, 0.2]))
    assert dq == pytest.approx([1.0, 0.0])
    # the same edge under a fee larger than the edge: abstain
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.35)
    assert best_response(ctx, np.array([0.8, 0.2])) is None


def test_abstains_when_belief_matches_prices():
    ctx = _ctx([0.0, 0.0, 0.0], lam=0.2)
    assert best_response(ctx, np.full(3, 1.0 / 3.0)) is None
    ctx = _ctx([3.0, 1.0], lam=0.1, fee=0.0)
    belief = ctx.p_hat
    assert best_response(ctx, belief) is None


def test_tie_breaking_is_deterministic():
    # coordinates 1 and 3 are equally overpriced: the tie resolves to the
    # lower index, whatever fractional size the refinement settles on
    ctx = _ctx([0.0, 0.0, 0.0, 0.0], lam=1.0)
    dq, profit = maximize_profit(ctx, np.array([0.3, 0.2, 0.3, 0.2]))
    assert dq[1] < 0.0
    assert dq[0] == 0.0 and dq[2] == 0.0 and dq[3] == 0.0
    # uniform belief at the origin: buying and selling tie; buy e_0 kept
    ctx = _ctx([0.0, 0.0], lam=1.0)
    dq, profit = maximize_profit(ctx, np.array([0.5, 0.5]))
    assert dq[0] > 0.0
    assert profit < 0.0


def test_fractional_refinement_lands_on_belief():
    ctx = _ctx([0.0, 0.0], lam=1.0)
    belief = np.array([0.6, 0.4])
    dq, profit = maximize_profit(ctx, belief)
    assert dq[0] == pytest.approx(math.log(1.5), abs=1e-12)
    assert profit > 0.0
    post = ctx.cost.prices(ctx.q_hat + dq)
    assert post[0] == pytest.approx(0.6, abs=1e-9)
    # refinement must never lose to the full unit trade it refines
    full = _expected_profit(ctx, belief, np.array([1.0, 0.0]))
    assert profit >= full


def test_fee_radius_deters_nearby_beliefs():
    # any belief within l-inf distance alpha of the published prices cannot
    # clear a fee of alpha, whatever single-coordinate trade it tries
    rng = np.random.default_rng(0)
    alpha = 0.12
    for _ in range(200):
        d = int(rng.integers(2, 5))
        lam = float(rng.uniform(0.01, 1.0))
        q_hat = rng.normal(0.0, 1.0 / lam, size=d)
        ctx = _ctx(q_hat, lam=lam, fee=alpha)
        w = float(rng.uniform(0.0, alpha))
        u = rng.dirichlet(np.ones(d))
        belief = (1.0 - w) * ctx.p_hat + w * u
        assert best_response(ctx, belief) is None


def test_mispricing_profit_floor():
    # whenever some coordinate is mispriced by gap >= 2*alpha and lam < alpha,
    # the best response clears the fee and nets at least gap - lam
    rng = np.random.default_rng(1)
    for trial in range(1000):
        d = int(rng.integers(2, 6))
        alpha = float(rng.uniform(0.02, 0.2))
        lam = alpha * float(rng.uniform(0.05, 0.95))
        q_hat = rng.normal(0.0, 0.5 / lam, size=d)
        ctx = _ctx(q_hat, lam=lam, fee=alpha)
        p_hat = ctx.p_hat
        delta = 2.0 * alpha * 1.01
        j = int(np.argmax(np.minimum(1.0 - p_hat, p_hat)))
        belief = p_hat.copy()
        if p_hat[j] + delta <= 0.98:
            belief[j] += delta
        else:
            belief[j] -= delta
        belief[np.arange(d) != j] *= (1.0 - belief[j]) / (1.0 - p_hat[j])
        gap = float(np.max(np.abs(belief - p_hat)))
        assert gap >= 2.0 * alpha - 1e-12
        dq, profit = maximize_profit(ctx, belief)
        assert profit >= gap - lam - 1e-9
        assert profit > alpha
        assert best_response(ctx, belief) is not None


def test_arbitrage_hunter_threshold():
    ctx = _ctx([0.0, 0.0], lam=0.01, fee=0.1)
    # deviation 0.2 beats the default (fee) threshold: trades
    assert ArbitrageHunter(np.array([0.7, 0.3])).decide(ctx) is not None
    # deviation 0.05 does not: abstains
    assert ArbitrageHunter(np.array([0.55, 0.45])).decide(ctx) is None
    # explicit threshold overrides the fee default
    assert ArbitrageHunter(np.array([0.55, 0.45]), threshold=0.01).decide(ctx) is not None
    big_fee = _ctx([0.0, 0.0], lam=0.01, fee=0.5)
    assert ArbitrageHunter(np.array([0.7, 0.3])).decide(big_fee) is None
    # threshold zero plus any noise-induced deviation: always trades
    off = _ctx([0.3, 0.0], lam=0.01)
    hunter = ArbitrageHunter(np.array([0.5, 0.5]), threshold=0.0)
    assert hunter.decide(off) is not None


@pytest.mark.parametrize("d", [2, 8, 1024])
def test_arbitrage_hunter_gap_is_numpys_max_bit_for_bit(d):
    """The hunter takes its gap over Python floats; pinned between two
    thresholds, it is float(np.abs(p_hat - belief).max()) exactly, and a gap
    equal to the threshold abstains."""
    rng = np.random.default_rng(d)
    cost = ScaledCost(d=d, lam=0.01)
    for _ in range(20):
        q_hat = rng.normal(0.0, 50.0, d)
        ctx = StrategyContext(t=1, q_hat=q_hat, p_hat=cost.prices(q_hat), fee=0.0, cost=cost)
        belief = rng.dirichlet(np.ones(d))
        gap = float(np.abs(ctx.p_hat - belief).max())
        assert ArbitrageHunter(belief, threshold=gap).decide(ctx) is None
        below = float(np.nextafter(gap, -math.inf))
        assert ArbitrageHunter(belief, threshold=below).decide(ctx) is not None


def test_arbitrage_hunter_keeps_its_own_belief():
    """A directly built hunter copies its belief: a later in-place change to
    the array it was given changes neither its gap nor its trades."""
    belief = np.array([0.5, 0.5])
    hunter = ArbitrageHunter(belief, threshold=0.1)
    twin = ArbitrageHunter(belief.copy(), threshold=0.1)
    belief[:] = [0.9, 0.1]
    for q_hat in ([0.0, 0.0], [30.0, 0.0], [0.0, 30.0]):
        ctx = _ctx(q_hat, lam=0.01)
        mine, theirs = hunter.decide(ctx), twin.decide(ctx)
        assert (mine is None) == (theirs is None)
        assert mine is None or mine.tobytes() == theirs.tobytes()
    assert hunter.belief.tolist() == [0.5, 0.5] and not hunter.belief.flags.writeable


@pytest.mark.parametrize("cls", [BeliefTrader, ArbitrageHunter])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_readers_refuse_a_belief_that_is_not_finite(cls, bad):
    """A reader's profits are exact only on a finite belief, so a nan or inf
    entry is refused when the reader is built, not decided on."""
    with pytest.raises(InvalidParameterError, match="finite"):
        cls(np.array([bad, 0.9]))
    assert cls([0.1, 0.9]).belief.tolist() == [0.1, 0.9]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "0.1", True, [0.1]])
def test_arbitrage_hunter_refuses_a_threshold_that_is_not_a_finite_number(bad):
    """nan would trade at every turn, inf never, a string would raise at the
    first decision and True would mean 1: each is refused when the hunter is
    built."""
    with pytest.raises(InvalidParameterError, match="threshold"):
        ArbitrageHunter(np.array([0.5, 0.5]), threshold=bad)
    for good in (None, 0, 0.25, -1, 10**400):
        assert ArbitrageHunter(np.array([0.5, 0.5]), threshold=good).threshold == good


@pytest.mark.parametrize("bad", [-1, 1.5, True, "0", None])
def test_herd_refuses_a_coordinate_that_is_not_an_int_of_at_least_zero(bad):
    """-1 would buy the last outcome and 1.5 would raise mid-run; a config's
    coordinate is still a ConfigError, from strategy_args."""
    with pytest.raises(InvalidParameterError, match="coordinate"):
        Herd(bad)
    assert Herd(2).coordinate == 2 and Herd().coordinate == 0
    with pytest.raises(ConfigError, match="coordinate"):
        strategy_args("herd", {"coordinate": -1}, 2)


def test_simple_strategies():
    ctx = _ctx([0.0, 0.0, 0.0], lam=0.01)
    assert Herd().decide(ctx) == pytest.approx([1.0, 0.0, 0.0])
    assert Herd(coordinate=2).decide(ctx) == pytest.approx([0.0, 0.0, 1.0])
    assert Abstainer().decide(ctx) is None
    a = RandomTrader(np.random.default_rng(5)).decide(ctx)
    b = RandomTrader(np.random.default_rng(5)).decide(ctx)
    assert np.array_equal(a, b)
    assert float(np.sum(np.abs(a))) == 1.0


@pytest.mark.parametrize("d", [2, 3, 8, 1024])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_random_trader_keeps_the_choice_stream(d, seed):
    # RandomTrader must draw its sign as rng.choice([-1.0, 1.0]) does, or
    # every seeded run with a random trader changes
    trader = RandomTrader(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    ctx = _ctx(np.zeros(d))
    stream = np.zeros((2000, d))
    for row in stream:
        row[int(rng.integers(d))] = float(rng.choice([-1.0, 1.0]))
    for expect in stream:
        assert np.array_equal(trader.decide(ctx), expect)
    state = trader.rng.bit_generator.state
    assert trader.rng.random() == rng.random()
    # runs of mixed sizes that cross the RANDOM_CHUNK draws take the same
    # pairs in the same order and leave the generator where decide left it
    sizes = (1, 7, 128, 250, 251, 3, 256, 249, 500, 355)
    assert sum(sizes) == len(stream) and len(stream) % RANDOM_CHUNK == 0
    runs = RandomTrader(np.random.default_rng(seed))
    start = 0
    for n in sizes:
        block = runs.decide_run(ctx, n)
        assert block.shape == (n, d) and (block == stream[start : start + n]).all()
        start += n
    assert runs.rng.bit_generator.state == state
    # a run's shortfall, here of several chunks, is drawn in one call of whole
    # chunks: after each run the generator is where a twin that drew the
    # same chunks one at a time left its own
    chunks = RandomTrader(np.random.default_rng(seed))
    twin, drawn, start = np.random.default_rng(seed), 0, 0
    for n in (1, 1023, 976):
        assert (chunks.decide_run(ctx, n) == stream[start : start + n]).all()
        start += n
        while drawn < start:
            twin.integers(np.tile([2, d], RANDOM_CHUNK))
            drawn += RANDOM_CHUNK
        assert chunks.rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_decide_asked_n_times_answers_what_decide_run_does(kind):
    # each built-in strategy writes one of decide and decide_run, and the
    # base class derives the other from it
    d, n = 3, 300
    params = {"belief": [0.6, 0.3, 0.1]} if kind in ("belief", "arbitrage_hunter") else {}
    one = make_strategy(kind, strategy_args(kind, params, d), np.random.default_rng(5))
    twin = make_strategy(kind, strategy_args(kind, params, d), 5)
    assert ("decide_run" if one.reads_state else "decide") not in vars(type(one))
    ctx = _ctx([0.5, -0.25, 0.0], lam=0.01, fee=0.001)
    singles = [one.decide(ctx) for _ in range(n)]
    run = twin.decide_run(ctx, n)
    assert len(run) == n
    for single, slot in zip(singles, run):
        assert (single is None and slot is None) or np.array_equal(single, slot)
    if kind == "random":
        assert one.rng.bit_generator.state == twin.rng.bit_generator.state


def test_make_strategy():
    rng = np.random.default_rng(0)
    for kind in STRATEGY_KINDS:
        strat = make_strategy(kind, strategy_args(kind, {}, 2), rng)
        assert strat.kind == kind
    assert make_strategy("random", (), rng).rng is rng
    (belief,) = strategy_args("belief", {}, 4)
    assert belief == pytest.approx(np.full(4, 0.25)) and not belief.flags.writeable
    args = strategy_args("arbitrage_hunter", {"belief": [0.9, 0.1], "threshold": 0.2}, 2)
    assert make_strategy("arbitrage_hunter", args, rng).threshold == 0.2
    assert strategy_args("herd", {"coordinate": 1}, 2) == (1,)
    with pytest.raises(InvalidParameterError):
        strategy_args("belief", {"belief": [0.9, 0.2]}, 2)  # sums to 1.1
    with pytest.raises(PrivMarketError):
        strategy_args("belief", {"belief": ["0.5", "0.5"]}, 2)  # strings, not numbers
    with pytest.raises(InvalidParameterError):
        strategy_args("momentum", {}, 2)
    with pytest.raises(InvalidParameterError):
        strategy_args("herd", {"speed": 3}, 2)  # unknown param


def test_step_strategy_validates_bundles():
    # step_strategy only asks; market.check_bundle validates each bundle, and
    # drive_session blames the strategy for a bundle it rejects and for an
    # answer that is not one bundle, before anything is booked
    ctx = _ctx([0.0, 0.0], lam=0.01)

    class Oversize(Strategy):
        kind = "oversize"

        def decide(self, ctx):
            return np.array([1.0, 1.0])

    class WrongShape(Strategy):
        kind = "wrong_shape"

        def decide(self, ctx):
            return np.array([1.0])

    class NotFinite(Strategy):
        kind = "not_finite"

        def decide(self, ctx):
            return np.array([np.inf, 0.0])

    class Answers(Strategy):  # a state reader answering with something other than one bundle
        def __init__(self, kind, answer):
            self.kind, self.answer = kind, answer

        def decide(self, ctx):
            return self.answer

    blocks = (Answers("block", np.eye(2)), Answers("oversize_row", np.array([[1.0, 0.0], [3.0, 1.0]])),
              Answers("long_list", [[0.1, 0.0]] * 9), Answers("ragged", [[0.1, 0.0], [0.1]]),
              Answers("row", np.array([[0.5, 0.5]])))
    cases = [(2, bad) for bad in (Oversize(), WrongShape(), NotFinite(), *blocks)]
    cases.append((1, Answers("scalar", 0.5)))  # numpy would read [0.5] as one bundle at d = 1
    for d, bad in cases:
        session = open_market(MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=4), rng=0)
        with pytest.raises(StrategyBugError, match=f"{bad.kind} returned a bad bundle"):
            drive_session(session, Stream((bad,), 3))
        assert session.arrivals == 0 and session.noise.t == 0
    assert step_strategy(Abstainer(), ctx) is None
    assert step_strategy(Herd(), ctx) is not None


@pytest.mark.parametrize("bad", [np.array([0.5 + 0.7j, 0.0]), np.array(["0.5", "0"])],
                         ids=["complex", "string"])
def test_bundles_that_are_not_ints_or_floats_are_not_booked(bad):
    # a cast to float would drop the imaginary part (with only a
    # ComplexWarning) and parse the string: both would book [0.5, 0]
    class Reader(Strategy):
        kind = "reader"

        def decide(self, ctx):
            return bad

    class Blind(Strategy):
        kind = "blind"
        reads_state = False

        def decide_run(self, ctx, n):
            return np.tile(bad, (n, 1))

    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=64)
    for strat in (Reader(), Blind()):
        session = open_market(params, rng=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a ComplexWarning would be an error
            with pytest.raises(StrategyBugError, match=f"^{strat.kind} returned a bad bundle: "
                                                       "bundle 0 entries must be ints or floats"):
                drive_session(session, Stream((strat,), 4))
        assert session.arrivals == 0 and session.noise.t == 0
        assert session.q_true.tolist() == [0.0, 0.0]


def test_a_strategy_must_define_decide_or_decide_run():
    # each default is written in terms of the other, so with neither the
    # first decision would recurse without end
    with pytest.raises(TypeError, match="Silent must define decide or decide_run"):

        class Silent(Strategy):
            kind = "silent"
            reads_state = False


def test_strategy_itself_cannot_be_instantiated():
    # its decide and decide_run default to each other: driving one would recurse
    with pytest.raises(TypeError, match="Strategy is abstract"):
        Strategy()
    assert Herd().kind == "herd"  # a subclass that defines one of them builds


def test_drive_session_stream_semantics():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=4, noise_off=True)
    herd = Herd()
    session = open_market(params, rng=0)
    stream = Stream((herd,), 10)
    assert drive_session(session, stream) == 4  # a full market stops taking slots
    assert session.is_full and session.arrivals == 4
    session = open_market(params, rng=0)
    assert drive_session(session, stream, 7) == 10  # from slot 7, the stream ran dry
    assert not session.is_full and session.arrivals == 3
    with pytest.raises(InvalidParameterError, match="slot"):
        drive_session(session, stream, -1)
    assert session.arrivals == 3

    # abstainers burn stream slots without filling the market
    session = open_market(params, rng=0)
    quiet = Abstainer()
    assert drive_session(session, Stream((quiet, herd), 6)) == 6
    assert not session.is_full and session.arrivals == 3  # the stream ran dry
    assert session.q_true == pytest.approx([3.0, 0.0])  # only the herd traded
    # readers between blind runs: the herd's arrival at slot 5 fills the session
    rec = Recorder()
    session = open_market(params, rng=0)
    assert drive_session(session, Stream((quiet, rec, herd), 20)) == 6
    assert session.is_full and rec.seen == [(1, 0.0), (3, 2.0)]


class Recorder(Strategy):
    """Reads the state: records (t, q_hat[0]) of each context, and buys one unit of 0."""

    kind = "recorder"

    def __init__(self):
        self.seen = []

    def decide(self, ctx):
        assert not ctx.q_hat.flags.writeable and not ctx.p_hat.flags.writeable
        self.seen.append((ctx.t, float(ctx.q_hat[0])))
        dq = np.zeros(ctx.cost.d)
        dq[0] = 1.0
        return dq


def test_drive_session_context_tracks_published_state():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=3, noise_off=True)
    session = open_market(params, rng=0)
    rec = Recorder()
    drive_session(session, Stream((rec,), 3))
    assert rec.seen == [(1, 0.0), (2, 1.0), (3, 2.0)]


def _recorded(cls, seen: list):
    """cls, with each context appended to seen before it decides."""

    class Recorded(cls):
        def decide(self, ctx):
            seen.append(ctx)
            return super().decide(ctx)

    return Recorded


def _lean(d: int) -> np.ndarray:
    """A belief of 0.72 on coordinate 0 (1 at d = 1), the rest spread evenly."""
    belief = np.full(d, 0.28 / max(d - 1, 1))
    belief[0] = 0.72 if d > 1 else 1.0
    return belief


def _reader_stream(d: int, seen: list, length: int) -> Stream:
    """belief, near-uniform belief, arbitrage_hunter, random; the state
    readers record their contexts in seen."""
    near = np.full(d, 1.0 / d)
    if d > 1:
        near[0], near[-1] = near[0] + 0.005, near[-1] - 0.005
    return Stream((_recorded(BeliefTrader, seen)(_lean(d)), _recorded(BeliefTrader, seen)(near),
                   _recorded(ArbitrageHunter, seen)(_lean(d)[::-1].copy()),
                   RandomTrader(np.random.default_rng(d))), length)


def _assert_fresh_unit_costs(seen: list) -> None:
    """Each context's carried unit costs are, byte for byte, a fresh pass's."""
    for ctx in seen:
        costs = ctx.unit_costs
        fresh = ctx.cost.cost(ctx.q_hat + unit_trades(ctx.cost.d))
        assert not costs.flags.writeable and costs.tobytes() == fresh.tobytes(), ctx.t


@pytest.mark.parametrize("d", [1, 2, 8])
def test_a_readers_carried_unit_costs_are_a_fresh_pass(d):
    # the step before a state reader prices its unit trades (step's probe):
    # after a blind run, after a reader's trade and after abstentions; the
    # first reader's, at the session's opening state, come from the driver
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=64)
    seen = []
    session = open_market(params, rng=d)
    drive_session(session, _reader_stream(d, seen, 600))
    assert session.is_full and len({*map(id, seen)}) > 30
    _assert_fresh_unit_costs(seen)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_unit_costs_carried_from_a_tall_block(d, monkeypatch):
    # a blind turn of 32 d rows, then a reader's turn: the block probed for
    # the first reader is tall (cost.is_tall), so its rows take the column path
    shapes, seen = [], []
    kernel = cost_module._shifted_exp
    monkeypatch.setattr(cost_module, "_shifted_exp", lambda x: (shapes.append(x.shape), kernel(x))[1])
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=1024)
    stream = Stream((RandomTrader(np.random.default_rng(d)), _recorded(BeliefTrader, seen)(_lean(d))),
                    64 * d, order="sequential")
    drive_session(open_market(params, rng=d), stream)
    assert shapes[1][0] >= TALL_ROWS * d  # the open's pass, then the blind turn's
    assert len(seen) == 32 * d and all(ctx.unit_costs is not None for ctx in seen)
    _assert_fresh_unit_costs(seen)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_maximize_profit_prices_a_hand_built_context_as_carried_costs_give(d, monkeypatch):
    # a context built without unit_costs is priced by maximize_profit, in
    # one kernel pass of the unit trades; its answer is the carried costs',
    # bit for bit, and a context that carries them makes no such pass
    passes = []
    kernel = cost_module._shifted_exp
    monkeypatch.setattr(cost_module, "_shifted_exp", lambda x: (passes.append(x.shape), kernel(x))[1])
    rng = np.random.default_rng(d)
    for _ in range(20):
        ctx = _ctx(rng.normal(0.0, 40.0, d), lam=0.02)
        carried = dataclasses.replace(
            ctx, unit_costs=ctx.cost.cost(ctx.q_hat + unit_trades(d)))
        belief = rng.dirichlet(np.ones(d))
        passes.clear()
        dq, profit = maximize_profit(carried, belief)
        assert (2 * d + 1, d) not in passes and ctx.unit_costs is None
        hand_dq, hand_profit = maximize_profit(ctx, belief)
        assert passes.count((2 * d + 1, d)) == 1
        assert hand_dq.tobytes() == dq.tobytes() and hand_profit == profit


def test_a_reader_after_an_abstaining_blind_run_carries_fresh_unit_costs(monkeypatch):
    # the session's first run is blind and books nothing, so no step priced
    # the hunter's unit trades: the driver prices them once, at the opening
    # state, for the hunter's context (not the blind one's); every later
    # hunter turn follows a herd's booked slot, whose step prices them
    passes = []
    kernel = cost_module._shifted_exp
    monkeypatch.setattr(cost_module, "_shifted_exp", lambda x: (passes.append(x.shape), kernel(x))[1])
    params = MarketParams(d=3, epsilon=1.0, alpha=0.3, gamma=0.1, T=32)
    session = open_market(params, rng=3)
    steps, step = [], session.step
    session.step = lambda dq, probe=False: (steps.append(probe), step(dq, probe))[1]
    seen = []
    hunter = _recorded(ArbitrageHunter, seen)(np.array([0.8, 0.1, 0.1]), threshold=0.0)
    passes.clear()
    drive_session(session, Stream((Abstainer(), hunter, Herd()), 30))
    assert len(seen) == 10 and seen[0].t == 1 and session.arrivals == 20
    # the first reader's unit trades, then one pass per step
    assert passes[0] == (7, 3) and len(passes) == 1 + len(steps)
    assert steps.count(True) == len(seen) - 1
    _assert_fresh_unit_costs(seen)


def test_one_kernel_pass_per_reader_arrival(monkeypatch):
    passes = []
    kernel = cost_module._shifted_exp
    monkeypatch.setattr(cost_module, "_shifted_exp", lambda x: (passes.append(x.shape), kernel(x))[1])
    params = MarketParams(d=8, epsilon=1.0, alpha=0.3, gamma=0.1, T=256)
    session = open_market(params, rng=8)
    steps, step = [], session.step
    session.step = lambda dq, probe=None: (steps.append(dq), step(dq, probe))[1]
    seen = []
    drive_session(session, _reader_stream(8, seen, 400))
    session.close(0)
    assert session.arrivals == 256 and len(seen) > 200
    # the open, every step, the first reader's unit trades and the close
    assert len(passes) == 1 + len(steps) + 1 + 1
    assert passes[:2] == [(8,), (17, 8)] and passes.count((17, 8)) == 1

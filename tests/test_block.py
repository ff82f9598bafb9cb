"""Block steps: MarketSession.step on a (k, d) block books what k single steps book.

Every comparison is ==: a block builds the same states with the same float
operations, in the same order, as its bundles stepped one at a time, and as
the per-state ReferenceSession.
"""

import copy
import itertools

import numpy as np
import pytest

from privmarket import (
    Abstainer,
    ArbitrageHunter,
    Herd,
    InvalidParameterError,
    InvalidStateError,
    MarketClosedError,
    MarketParams,
    RandomTrader,
    RunConfig,
    ScaledCost,
    Strategy,
    StrategyBugError,
    StrategyContext,
    Stream,
    TradeRejectedError,
    drive_session,
    open_market,
    run_trial,
)

from privmarket import cost as cost_module
from privmarket import market as market_module
from privmarket.cost import unit_trades
from privmarket.market import MarketSession
from privmarket.traders import BLOCK_CAP, BLOCK_FLOATS

from oracles import SESSION_FIELDS, ReferenceSession, assert_same_session, held_pairs


def _bundles(rng, d: int, n: int) -> np.ndarray:
    """Signed unit trades, fractional single-coordinate trades and spread trades."""
    out = np.zeros((n, d))
    for row in out:
        kind = rng.integers(3)
        j = rng.integers(d)
        if kind == 0:
            row[j] = rng.choice([-1.0, 1.0])
        elif kind == 1:
            row[j] = rng.uniform(-1.0, 1.0)
        else:
            row[:] = rng.dirichlet(np.ones(d)) * rng.choice([-1.0, 1.0], size=d) * rng.uniform()
    return out


def _split(rng, n: int) -> list[int]:
    """Random block lengths summing to n, ones included."""
    sizes = []
    while n:
        k = int(min(n, rng.choice([1, 1, 2, 3, int(rng.integers(1, 40))])))
        sizes.append(k)
        n -= k
    return sizes


def _state(session) -> tuple:
    held = [(time, value.tolist()) for time, value in held_pairs(session.noise)]
    values = [np.asarray(getattr(session, name)).tolist() for name in SESSION_FIELDS]
    return values, held, session.noise.t, session.closed


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("noise_off", [False, True])
def test_every_partition_books_the_same_session(d, noise_off):
    # blocks cross 64 and 128; those of 62 and more are tall at d = 7, and
    # the long blocks are tall at d = 8 too, where prices stay row-major.
    # Before most steps the session previews prefixes of the block, short
    # and long: each preview's quote is the state a per-state reference
    # publishes at that row, with a lone pass's unit costs, a second look
    # with no new row hands out that same quote, it books nothing, and the
    # step that books the block checks it against its own chain
    T = 150
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T, noise_off=noise_off)
    rng = np.random.default_rng(100 * d + noise_off)
    bundles = _bundles(rng, d, T)
    splits = [[1] * T, [T], [64, 64, 22], [63, 2, 62, 23]]
    splits += [_split(rng, T) for _ in range(4)]
    outcome = d - 1
    closed = []
    for sizes in splits:
        session = open_market(params, rng=np.random.default_rng(7))
        reference = ReferenceSession(params, np.random.default_rng(7))
        _assert_quote(session)  # the open prices no unit trades
        start = 0
        for k in sizes:
            block = bundles[start : start + k]
            seen = []  # the reference's t, q_hat and p_hat after each row of the block
            for dq in block:
                reference.step(dq)
                seen.append((reference.arrivals + 1, reference.q_hat.tolist(),
                             reference.p_hat.tolist()))
            previews = sorted({0, 1, k // 3, k - 1, k}) if start % 3 != 1 else []
            for j in previews:
                booked = _state(session)
                session.preview(block, j)
                assert _state(session) == booked
                quote = session.quote
                if j:
                    assert (quote.t, quote.q_hat.tolist(), quote.p_hat.tolist()) == seen[j - 1]
                else:
                    assert quote.t == session.arrivals + 1 and quote.q_hat is session.q_hat
                fresh = session.cost.cost(quote.q_hat + unit_trades(d))
                assert quote.unit_costs.tobytes() == fresh.tobytes()
                session.preview(block, j)  # no new row, and the quote carries its costs
                assert session.quote is quote and _state(session) == booked
                for x in (quote.q_hat, quote.p_hat, quote.unit_costs):
                    assert not x.flags.writeable
            # (d,) or (1, d)
            assert session.step(block[0] if k == 1 and start % 2 else block) is None
            start += k
            assert_same_session(session, reference)
            _assert_quote(session)
            # the published prices own a contiguous row, whichever axis the
            # block's prices were gathered along
            p_hat = session.p_hat
            assert p_hat.flags.c_contiguous and not p_hat.flags.writeable and p_hat.base is None
        assert session.is_full
        quote = session.quote
        ledger = session.close(outcome)
        assert session.quote is quote  # left as last published, as p_hat is
        assert ledger == reference.close(outcome)
        assert np.array_equal(session.q_hat, reference.q_hat) and session.c_hat == reference.c_hat
        closed.append((_state(session), ledger))
    assert all(entry == closed[0] for entry in closed)


def _assert_quote(session) -> None:
    """session.quote is the context of the state a step (or the open) last
    published, which carries no unit costs."""
    quote = session.quote
    assert quote.t == session.arrivals + 1 and quote.unit_costs is None
    assert quote.q_hat is session.q_hat and quote.p_hat is session.p_hat
    assert quote.fee == session.params.fee and quote.cost is session.cost


def _sweep_the_counter(T: int, most: int) -> None:
    """Step blocks of 1 .. most random bundles at d = 2 up to a close at
    T - 1 and one at T, each compared with ReferenceSession after every step."""
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    rng = np.random.default_rng(14)
    bundles = _bundles(rng, 2, T)
    session = open_market(params, rng=np.random.default_rng(7))
    reference = ReferenceSession(params, np.random.default_rng(7))
    start = 0
    for end in (T - 1, T):
        while start < end:
            k = int(min(end - start, rng.integers(1, most + 1)))
            session.step(bundles[start : start + k])
            for dq in bundles[start : start + k]:
                reference.step(dq)
            start += k
            assert_same_session(session, reference)
        assert session.noise.mask == end
        twin, twin_reference = copy.deepcopy((session, reference))
        assert twin.close(0) == twin_reference.close(0)
        assert np.array_equal(twin.q_hat, twin_reference.q_hat)
        assert twin.c_hat == twin_reference.c_hat


def test_blocks_of_up_to_block_cap_arrivals_book_the_counter_to_2_to_the_14():
    # the production counter path (block plans and NoiseLedger.advance) at
    # every level up to 14; a close at T - 1 sells back fourteen bundles,
    # one at T sells one
    _sweep_the_counter(2**14, BLOCK_CAP)


def test_one_bundle_steps_book_the_counter_to_2_to_the_12():
    # every arrival a one-bundle step, a block plan of one arrival, at every
    # level up to 12; closes at T - 1 and T
    _sweep_the_counter(2**12, 1)


def _bad_blocks(d: int):
    good = np.eye(d)[0]
    oversize = np.full(d, 1.0)
    oversize[0] = 1.5
    not_finite = good.copy()
    not_finite[-1] = np.nan
    return {
        "l1 norm above 1": np.stack([good, oversize, good]),
        "nan": np.stack([good, good, not_finite]),
        "wrong shape": [good, np.ones(d + 1), good],
        # entries that are not ints or floats
        "complex": [good, good * 0.5 + 0.7j, good],
        "string": [good, np.array(["0.5"] * d), good],
        "bytes": [good, np.array([b"0.5"] * d), good],
        "bool": [good, np.ones(d, dtype=bool), good],
        "object": [good, good.astype(object), good],
    }


@pytest.mark.parametrize("d", [2, BLOCK_FLOATS // 4])  # at 4096 the failed step refills
@pytest.mark.parametrize("k", [1, 5])
def test_a_step_whose_kernel_raises_books_nothing(d, k, monkeypatch):
    # take is a read and advance the one booking of the noise, so a step
    # that raises after take (here in its kernel pass) leaves the session
    # as it was: from then on it books bit for bit what a twin that never
    # saw the call books.  The failed take may draw ahead further than the
    # twin's next one, but both draw T * d uniforms by T
    T = 24
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    bundles = _bundles(np.random.default_rng(d), d, T)
    session, twin = (open_market(params, rng=np.random.default_rng(5)) for _ in range(2))
    kernel = cost_module._shifted_exp

    def raise_once(x):
        monkeypatch.setattr(cost_module, "_shifted_exp", kernel)
        raise FloatingPointError("kernel")

    for start in range(0, T, 3):
        block = bundles[start : start + 3]
        if start == 3:
            monkeypatch.setattr(cost_module, "_shifted_exp", raise_once)
            with pytest.raises(FloatingPointError):
                session.step(bundles[start : start + k])
        assert _state(session) == _state(twin)
        session.step(block)
        twin.step(block)
        assert _state(session) == _state(twin)
    assert session.is_full and session.rng.bit_generator.state == twin.rng.bit_generator.state
    assert session.close(0) == twin.close(0) and _state(session) == _state(twin)


@pytest.mark.parametrize("d", [2, 3])
def test_a_rejected_block_books_nothing(d):
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=10)
    session = open_market(params, rng=np.random.default_rng(3))
    session.step(np.tile(np.eye(d)[0], (5, 1)))
    before = _state(session)
    rng_state = session.rng.bit_generator.state
    # a preview checks the rows it adds before it takes their bundles, as the
    # step checks its block: the same row is refused, and nothing moves
    for (name, block), call in itertools.product(
            _bad_blocks(d).items(), (session.step, lambda block: session.preview(block, 3))):
        with pytest.raises(TradeRejectedError) as info:
            call(block)
        assert info.value.row == (1 if name != "nan" else 2), name
        assert f"bundle {info.value.row} " in str(info.value), name
        assert _state(session) == before and session.rng.bit_generator.state == rng_state
    # a block that would pass T: 5 booked, 6 more do not fit
    with pytest.raises(MarketClosedError, match="6 more do not fit"):
        session.step(np.tile(np.eye(d)[0], (6, 1)))
    assert _state(session) == before and session.rng.bit_generator.state == rng_state
    session.step(np.tile(np.eye(d)[0], (5, 1)))
    assert session.is_full


class _Returns(Strategy):
    """Returns a fixed bundle; reads no published state."""

    reads_state = False

    def __init__(self, kind: str, bundle):
        self.kind = kind
        self.bundle = bundle

    def decide(self, ctx):
        return self.bundle


def test_drive_session_blames_the_strategy_of_the_bad_row():
    # refused by the step of the block, or, when a state reader follows, by
    # the preview before it is asked: the preview checks the rows it adds
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    for (name, block), reader in itertools.product(_bad_blocks(2).items(), (False, True)):
        session = open_market(params, rng=0)
        bad = _Returns("bad_" + name.replace(" ", "_"), block[2 if name == "nan" else 1])
        last = _ReadsState("reader", np.eye(2)[1]) if reader else Herd()
        stream = Stream((Herd(), RandomTrader(np.random.default_rng(0)), Herd(), bad, last), 5)
        with pytest.raises(StrategyBugError, match=f"^{bad.kind} returned a bad bundle"):
            drive_session(session, stream)
        assert session.arrivals == 0 and session.noise.t == 0  # the whole block is refused
        assert session.quote.t == 1  # and no preview published a state


@pytest.mark.parametrize("d", [1, 2])
def test_a_blind_list_of_scalars_is_not_a_bundle(d):
    # d slots answered with d scalars, which numpy would read as one bundle
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    session = open_market(params, rng=0)
    bad = _Returns("scalars", 0.5 / d)
    with pytest.raises(StrategyBugError, match="^scalars returned a bad bundle"):
        drive_session(session, Stream((bad,), d))
    assert session.arrivals == 0 and session.noise.t == 0


class _ReadsState(_Returns):
    """Returns a fixed bundle, as a strategy that reads the published state."""

    reads_state = True


_TOTALS = ("trade_payments", "noise_sell_total", "noise_buy_total", "fee_total", "bundle_l2_total")


def _booked(session) -> tuple:
    """Arrivals, the five cash totals, q_hat and p_hat."""
    return (session.arrivals, *(getattr(session, name) for name in _TOTALS),
            session.q_hat.tolist(), session.p_hat.tolist())


@pytest.mark.parametrize("d", [1, 2])
def test_a_state_readers_answer_books_what_booking_it_alone_books(d):
    # a reader's answer leads the block the blind run after it joins: a
    # float64 (d,) array, a list and an int array book what each arrival
    # booked alone books, and a (1, d) array is refused, not read as one bundle
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    bundle = np.full(d, 0.5 / d)
    for answer in (bundle, bundle.tolist(), np.eye(d, dtype=int)[-1]):
        session = open_market(params, rng=0)
        drive_session(session, Stream((_ReadsState("reader", answer), Herd()), 9))
        reference = open_market(params, rng=0)
        for slot in range(9):
            reference.step([answer] if slot % 2 == 0 else np.eye(d)[0])
        assert session.arrivals == 9 and _booked(session) == _booked(reference)
    session = open_market(params, rng=0)
    with pytest.raises(StrategyBugError, match="^reader returned a bad bundle"):
        drive_session(session, Stream((_ReadsState("reader", bundle[None]), Herd()), 3))
    assert session.arrivals == 0 and session.noise.t == 0


class _BadSecond(Strategy):
    """A state reader that buys coordinate 0 on its first turn and answers bad
    on its second, noting the session's books and next bundles as it is asked."""

    kind = "bad_second"

    def __init__(self, session, bad):
        self.session, self.bad, self.turns = session, bad, []

    def decide(self, ctx):
        session = self.session
        z, norms = session.noise.take(session.rng, 3)
        self.turns.append((_booked(session), session.noise.t, session.noise.mask,
                           z.tolist(), norms.tolist()))
        return self.bad if len(self.turns) == 2 else np.eye(session.params.d)[0]


@pytest.mark.parametrize("d", [2, 3])
def test_a_rejected_reader_answer_books_nothing(d):
    # refused when written (a bool entry, a (1, d) array) or by the preview
    # before the reader's next turn, after the blind run behind it is asked
    # (nan, l1 norm above 1): either way nothing is booked (the block waits
    # for the end of the stream) and the session is as the reader found it
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    oversize = np.full(d, 0.6)
    not_finite = np.eye(d)[0]
    not_finite[-1] = np.nan
    answers = {"nan": not_finite, "l1 norm above 1": oversize,
               "bool": [True] + [0.0] * (d - 1), "(1, d)": np.eye(d)[:1]}
    for name, bad in answers.items():
        session = open_market(params, rng=np.random.default_rng(d))
        reader = _BadSecond(session, bad)
        stream = Stream((Herd(), reader, RandomTrader(np.random.default_rng(1))), 12)
        with pytest.raises(StrategyBugError, match="^bad_second returned a bad bundle"):
            drive_session(session, stream)
        assert len(reader.turns) == 2 and session.arrivals == 0, name
        z, norms = session.noise.take(session.rng, 3)
        after = (_booked(session), session.noise.t, session.noise.mask, z.tolist(), norms.tolist())
        assert after == reader.turns[1], name


def test_a_state_reader_sees_the_blind_run_ahead_of_it_booked():
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=64)

    class Hunter(ArbitrageHunter):
        def __init__(self):
            super().__init__(np.array([0.85, 0.15]))
            self.seen = []

        def decide(self, ctx):
            self.seen.append((ctx.t, ctx.q_hat.copy(), ctx.p_hat.copy()))
            return super().decide(ctx)

    def blind():  # a blind run of five slots, the same for a twin
        return [Herd(), RandomTrader(np.random.default_rng(9)), Herd(1),
                RandomTrader(np.random.default_rng(10)), RandomTrader(np.random.default_rng(11))]

    hunter = Hunter()
    session = open_market(params, rng=np.random.default_rng(4))
    drive_session(session, Stream((*blind(), hunter), 240))

    # the same arrivals stepped one at a time, recording what the hunter must see
    reference = open_market(params, rng=np.random.default_rng(4))
    twin = ArbitrageHunter(np.array([0.85, 0.15]))
    expected = []
    for strat in [*blind(), twin] * 40:
        if reference.is_full:
            break
        if strat is twin:
            expected.append((reference.arrivals + 1, reference.q_hat, reference.p_hat))
        dq = strat.decide(StrategyContext(t=reference.arrivals + 1, q_hat=reference.q_hat,
                                          p_hat=reference.p_hat, fee=params.fee,
                                          cost=reference.cost))
        if dq is not None:
            reference.step(dq)
    assert len(hunter.seen) == len(expected) > 5
    for (t, q_hat, p_hat), (t_ref, q_ref, p_ref) in zip(hunter.seen, expected):
        assert t == t_ref and np.array_equal(q_hat, q_ref) and np.array_equal(p_hat, p_ref)
    assert session.close(0) == reference.close(0)


class _BlockLog(MarketSession):
    """A session that records the length of every block it books."""

    def __init__(self, params):
        super().__init__(params, np.random.default_rng(0))
        self.blocks = []

    def step(self, dq):
        self.blocks.append(len(np.atleast_2d(dq)))
        return super().step(dq)


@pytest.mark.parametrize("d", [2, 1024])
def test_blocks_respect_both_caps_and_never_overfill(d):
    T = 2 * BLOCK_CAP + 100  # d = 2 fills two blocks of BLOCK_CAP, then a short one
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    session = _BlockLog(params)
    stream = Stream((Herd(), Abstainer(), RandomTrader(np.random.default_rng(1))), 3 * T)
    assert drive_session(session, stream) == 3 * T // 2  # T arrivals took 1.5 T slots
    assert session.is_full
    cap = min(BLOCK_CAP, BLOCK_FLOATS // d)
    full, rest = divmod(T, cap)
    assert full >= 2 and session.blocks == [cap] * full + ([rest] if rest else [])


@pytest.mark.parametrize("d", [1, 2, 8, 64, 1024])
def test_a_filled_session_draws_exactly_its_horizon(d):
    # bundles are drawn ahead in chunks, never past T: a filled session
    # leaves its generator where T * d uniforms leave it, so sessions that
    # share one in turn (run_adaptive's stages) draw what per-arrival draws
    # do; under noise_off its zero bundles leave the generator untouched
    for T, noise_off in itertools.product((2, 3, 64, 300, 1000), (False, True)):
        params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T, noise_off=noise_off)
        session = open_market(params, rng=np.random.default_rng(T))
        drive_session(session, Stream((Herd(), RandomTrader(np.random.default_rng(1))), 2 * T))
        assert session.is_full
        session.close(0)
        twin = np.random.default_rng(T)
        twin.random((0 if noise_off else T, d))
        assert session.rng.bit_generator.state == twin.bit_generator.state, (T, noise_off)


@pytest.mark.parametrize("d, T, k", [(2, 10_000, 5), (8, 300, 299), (64, 1000, 300),
                                     (1024, 40, 17)])
def test_a_session_closed_short_of_its_horizon_draws_at_most_its_horizon(d, T, k):
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    session = open_market(params, rng=np.random.default_rng(k))
    session.step(np.tile(np.eye(d)[0], (k, 1)))
    session.close(0)
    twin = np.random.default_rng(k)
    states = []
    for _ in range(T + 1):  # after 0 .. T bundles of d uniforms
        states.append(twin.bit_generator.state)
        twin.random(d)
    assert k <= states.index(session.rng.bit_generator.state) <= T


def _books(session) -> tuple:
    """_state, the level array's bytes, the mask and the generator's state."""
    return (_state(session), session.noise.levels.tobytes(), session.noise.mask,
            session.rng.bit_generator.state)


@pytest.mark.parametrize("d", [2, 64])  # at 64 the take buffer refills at t = 256
def test_previews_book_nothing(d):
    # any number of previews of a block's prefixes, short and long, repeated
    # and of no new row, leave arrivals, the totals, q_hat, p_hat, the
    # levels, the mask and the generator as the twin that never previews
    # has them once its step of the block has taken its bundles (the one
    # draw ahead a preview may make is the one that step makes); the step
    # after them books what the twin's books
    T = 300
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=T)
    bundles = _bundles(np.random.default_rng(d), d, T)
    session, twin = (open_market(params, rng=np.random.default_rng(5)) for _ in range(2))
    start = 0
    for k in (5, 40, 1, 120, 100, 34):
        block = bundles[start : start + k]
        before = _books(session)
        twin.noise.take(twin.rng, k)
        drawn = twin.rng.bit_generator.state
        for j in sorted((0, 0, 1, 1, k // 2, k, k)):
            session.preview(block, j)
            books = _books(session)
            # the generator moves only to where taking the block leaves it
            assert books[:-1] == before[:-1] and books[-1] in (before[-1], drawn), j
            assert j < k or books[-1] == drawn
            before = books
        session.step(block)
        twin.step(block)
        assert _books(session) == _books(twin)
        start += k
    assert session.close(0) == twin.close(0) and _books(session) == _books(twin)


def _flip(x: np.ndarray, entry: int = 0) -> np.ndarray:
    """x with the last bit of one entry flipped."""
    y = x.copy()
    y.view(np.int64)[entry] ^= 1
    return y


@pytest.mark.parametrize("flipped", ["q_hat", "p_hat"])
def test_a_preview_that_is_not_the_booked_state_stops_the_step(flipped, monkeypatch):
    # the step checks each preview against its own chain before it books
    # anything: one bit of a previewed q_hat or p_hat off raises
    params = MarketParams(d=3, epsilon=1.0, alpha=0.3, gamma=0.1, T=40)
    block = _bundles(np.random.default_rng(3), 3, 20)
    session, twin = (open_market(params, rng=np.random.default_rng(8)) for _ in range(2))
    for market in (session, twin):
        market.step(block[:4])
        market.preview(block[4:], 3)
    twin.preview(block[4:], 9)
    with monkeypatch.context() as patch:
        if flipped == "q_hat":
            # the chain runs from the last previewed q_hat with one bit off, in
            # the entry whose bit the running sum keeps (asserted below)
            source = market_module._block_source
            patch.setattr(market_module, "_block_source",
                          lambda q, *args: source(_flip(q, 2), *args))
        else:
            kernel = ScaledCost._block_cost_and_prices

            def flipped_prices(self, q):  # row 0's prices are the previewed p_hat
                costs, prices = kernel(self, q)
                return costs, np.vstack([_flip(prices[0]), prices[1:]])

            patch.setattr(ScaledCost, "_block_cost_and_prices", flipped_prices)
        session.preview(block[4:], 9)
    seen, booked = session.quote, twin.quote
    assert ((seen.q_hat.tolist(), seen.p_hat.tolist())
            != (booked.q_hat.tolist(), booked.p_hat.tolist()))
    session.preview(block[4:], 12)
    before = _books(session)
    with pytest.raises(InvalidStateError, match="previewed state is not the state booked"):
        session.step(block[4:16])
    assert _books(session) == before


def test_a_preview_out_of_sync_with_held_noise_stops_the_step():
    # published - true - held noise at each previewed row, the held noise
    # summed over the chain's sales and buys from held_sum(): a held level
    # corrupted after a step is carried into the preview and the block alike
    # (they agree), and the preview's check raises before anything is booked
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=40)
    block = _bundles(np.random.default_rng(2), 2, 20)
    session = open_market(params, rng=np.random.default_rng(8))
    session.step(block[:7])
    held_pairs(session.noise)[0][1][1] -= 1e-3  # the oldest held bundle, bought at t = 4
    session.preview(block[7:], 2)
    before = _books(session)
    with pytest.raises(InvalidStateError, match="previewed state lost sync with held noise"):
        session.step(block[7:12])
    assert _books(session) == before


_LEAN = [0.72] + [0.04] * 7  # belief 0.72 on one coordinate at d = 8


@pytest.mark.parametrize("config", [
    {"market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 64},
     "traders": [{"kind": "herd"}, {"kind": "random"},
                 {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15]}}]},
    {"market": {"d": 8, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 256},
     "traders": [{"kind": "belief", "params": {"belief": _LEAN}},
                 {"kind": "belief", "params": {"belief": [0.13] + [0.125] * 6 + [0.12]}},
                 {"kind": "arbitrage_hunter", "params": {"belief": _LEAN[1::-1] + _LEAN[2:]}},
                 {"kind": "random"}],
     "stream_length": 1056, "adaptive": {"stage_override": 256, "max_stages": 3}},
], ids=["flat_mixed_T64", "staged_d8_belief"])
def test_quotes_and_books_do_not_depend_on_the_plan_cache(monkeypatch, config):
    # previews and steps share _block_plan's cached read-only arrays: trials
    # that clear the cache before every preview and step, so that each builds
    # its plans afresh, see the reader quotes (t, q_hat, p_hat, unit costs)
    # and close the ledgers of trials that keep it
    config = RunConfig.from_dict(config)
    preview, step, close = MarketSession.preview, MarketSession.step, MarketSession.close

    def trials(clear: bool) -> tuple[list, list]:
        quotes, ledgers = [], []

        def previewed(self, *args):
            if clear:
                market_module._block_plan.cache_clear()
            preview(self, *args)
            q = self.quote
            quotes.append((q.t, q.q_hat.tolist(), q.p_hat.tolist(), q.unit_costs.tolist()))

        def stepped(self, dq):
            if clear:
                market_module._block_plan.cache_clear()
            step(self, dq)

        def closed(self, outcome):
            ledgers.append(close(self, outcome))
            return ledgers[-1]

        with monkeypatch.context() as patch:
            patch.setattr(MarketSession, "preview", previewed)
            patch.setattr(MarketSession, "step", stepped)
            patch.setattr(MarketSession, "close", closed)
            for seed in range(3):
                run_trial(config, seed)
        return quotes, ledgers

    kept, cleared = trials(False), trials(True)
    quotes, ledgers = kept
    assert len(quotes) > 60 and len(ledgers) == 3 * len(config.markets())
    assert cleared == kept


def test_a_step_books_every_previewed_row():
    # a block shorter than the rows previewed since the last step would leave
    # a state a strategy saw unchecked: refused before anything is booked
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=40)
    block = _bundles(np.random.default_rng(2), 2, 20)
    session = open_market(params, rng=np.random.default_rng(8))
    session.preview(block, 6)
    before = _books(session)
    with pytest.raises(InvalidStateError, match="6 rows are previewed; 5 are booked"):
        session.step(block[:5])
    assert _books(session) == before
    with pytest.raises(InvalidParameterError, match="6 rows are previewed"):
        session.preview(block, 5)
    session.step(block[:6])
    assert session.arrivals == 6

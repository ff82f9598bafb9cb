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
    MarketClosedError,
    MarketParams,
    RandomTrader,
    Strategy,
    StrategyBugError,
    StrategyContext,
    Stream,
    TradeRejectedError,
    drive_session,
    open_market,
)

from privmarket import cost as cost_module
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
    # Most steps also price q_hat + the unit trades after them (a probe) in
    # their kernel pass: that books nothing else, and gives a lone pass's bits
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
        start = 0
        for k in sizes:
            block = bundles[start : start + k]
            probe = start % 3 != 1
            costs = session.step(block[0] if k == 1 and start % 2 else block, probe)  # (d,) or (1, d)
            for dq in block:
                reference.step(dq)
            start += k
            assert_same_session(session, reference)
            if not probe:
                assert costs is None
            else:
                assert not costs.flags.writeable
                fresh = session.cost.cost(session.q_hat + unit_trades(d))
                assert costs.tobytes() == fresh.tobytes()
            # the published prices own a contiguous row, whichever axis the
            # block's prices were gathered along
            p_hat = session.p_hat
            assert p_hat.flags.c_contiguous and not p_hat.flags.writeable and p_hat.base is None
        assert session.is_full
        ledger = session.close(outcome)
        assert ledger == reference.close(outcome)
        assert np.array_equal(session.q_hat, reference.q_hat) and session.c_hat == reference.c_hat
        closed.append((_state(session), ledger))
    assert all(entry == closed[0] for entry in closed)


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
    # every arrival a one-bundle step, which step books without a block
    # plan, at every level up to 12; closes at T - 1 and T
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
    for (name, block), probe in itertools.product(_bad_blocks(d).items(), (False, True)):
        with pytest.raises(TradeRejectedError) as info:
            session.step(block, probe)
        assert info.value.row == (1 if name != "nan" else 2), name
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
    params = MarketParams(d=2, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    for name, block in _bad_blocks(2).items():
        session = open_market(params, rng=0)
        bad = _Returns("bad_" + name.replace(" ", "_"), block[2 if name == "nan" else 1])
        stream = Stream((Herd(), RandomTrader(np.random.default_rng(0)), Herd(), bad, Herd()), 5)
        with pytest.raises(StrategyBugError, match=f"^{bad.kind} returned a bad bundle"):
            drive_session(session, stream)
        assert session.arrivals == 0 and session.noise.t == 0  # the whole block is refused


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


@pytest.mark.parametrize("d", [1, 2])
def test_a_state_readers_ndarray_bundle_is_stepped_as_it_is(d):
    # an ndarray (d,) reaches step unwrapped, any other answer as a list of
    # one bundle, so a (1, d) array is still refused
    params = MarketParams(d=d, epsilon=1.0, alpha=0.3, gamma=0.1, T=20)
    bundle = np.full(d, 0.5 / d)
    for answer in (bundle, bundle.tolist()):
        session = open_market(params, rng=0)
        seen, step = [], session.step
        session.step = lambda dq, probe=None: (seen.append(dq), step(dq, probe))[1]
        drive_session(session, Stream((_ReadsState("reader", answer),), 3))
        assert session.arrivals == 3 and [dq is answer for dq in seen] == [answer is bundle] * 3
    session = open_market(params, rng=0)
    with pytest.raises(StrategyBugError, match="^reader returned a bad bundle"):
        drive_session(session, Stream((_ReadsState("reader", bundle[None]),), 3))
    assert session.arrivals == 0 and session.noise.t == 0


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

    def step(self, dq, probe=None):
        self.blocks.append(len(np.atleast_2d(dq)))
        return super().step(dq, probe)


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

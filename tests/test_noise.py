"""Binary-counter noise ledger: exhaustive combinatorics plus noise-draw statistics."""

import math

import numpy as np
import pytest

from privmarket import (
    InvalidParameterError,
    InvalidStateError,
    NoiseLedger,
    noise_scale,
    participation_table,
    sample_bundle,
    tree_depth,
)

from privmarket.noise import BLOCK_FLOATS, l2_norms

from oracles import (
    bundle_gap_total,
    held_pairs,
    low_bit,
    noise_path_sum,
    participation_count,
    reference_participation_table,
)


def _turn_over(led, value):
    """One counter step: sell begin_step's count from the top, then buy value.

    Returns the buy times of the sold bundles, in the order they were sold.
    """
    sold = []
    for _ in range(led.begin_step()):
        sold.append(held_pairs(led)[-1][0])
        led.mark_sold()
    led.new_bundle(value)
    led.verify_held()
    return sold


def _trailing_zeros(t):
    count = 0
    while t % 2 == 0:
        t //= 2
        count += 1
    return count


def test_bit_helpers():
    assert [low_bit(t) for t in (1, 2, 3, 4, 6, 12, 80)] == [1, 2, 1, 4, 2, 4, 16]
    with pytest.raises(InvalidParameterError):
        low_bit(0)


def test_tree_depth_and_scale():
    assert tree_depth(16) == 4
    assert tree_depth(17) == 5
    assert tree_depth(1) == 1
    assert noise_scale(16, 1.0) == pytest.approx(8.0)
    assert noise_scale(16, 0.5) == pytest.approx(16.0)
    assert noise_scale(1, 1.0) == pytest.approx(2.0)
    with pytest.raises(InvalidParameterError):
        noise_scale(16, 0.0)


def test_sell_schedule_worked_examples():
    led = NoiseLedger(d=1, scale=1.0, T=12)
    sells = {t: _turn_over(led, np.zeros(1)) for t in range(1, 13)}
    assert sells[1] == []
    assert sells[4] == [3, 2]
    assert sells[8] == [7, 6, 4]
    assert sells[12] == [11, 10]
    assert sells[5] == []
    assert [time for time, _ in held_pairs(led)] == [8, 12]


def test_counter_equivalence_exhaustive():
    # held set after step t == set of one-bits of t, for every t up to 2**14
    led = NoiseLedger(d=1, scale=1.0, T=2 ** 14)
    sold_at = {}
    for t in range(1, 2 ** 14 + 1):
        sold = _turn_over(led, np.zeros(1))
        assert len(sold) == _trailing_zeros(t)
        for s in sold:
            assert s not in sold_at
            sold_at[s] = t
        held = {time for time, _ in held_pairs(led)}
        assert len(held) == len(held_pairs(led))
        # rebuild independently: the one-bit prefixes of t
        expect = set()
        rem = t
        while rem:
            lb = rem & -rem
            expect.add(rem)
            rem -= lb
        assert held == expect
    # every sold bundle went exactly once, at its low-bit gap
    for s, t in sold_at.items():
        assert t - s == low_bit(s)


def test_path_sum_equivalence_exhaustive():
    # running ledger value == sum over the s-chain of t, for every t up to 2**14
    rng = np.random.default_rng(0)
    led = NoiseLedger(d=1, scale=1.0, T=2 ** 14)
    values = {}
    held_total = 0.0
    for t in range(1, 2 ** 14 + 1):
        values[t] = float(rng.normal())
        for s in _turn_over(led, np.array([values[t]])):
            held_total -= values[s]
        held_total += values[t]
        assert held_total == pytest.approx(float(noise_path_sum(t, values)), abs=1e-9)


def test_noise_path_sum_missing_bundle():
    with pytest.raises(InvalidStateError):
        noise_path_sum(3, {3: 1.0})  # chain needs t = 2 as well


def test_participation_count_vs_brute_force():
    for T in (1, 2, 7, 8, 16, 37, 64, 128):
        for tp in range(1, T + 1):
            brute = sum(1 for t in range(tp, T + 1) if t & (t - 1) < tp)
            assert participation_count(tp, T) == brute
    with pytest.raises(InvalidParameterError):
        participation_count(0, 8)
    with pytest.raises(InvalidParameterError):
        participation_count(9, 8)


def test_participation_table_matches_scalar():
    for T in (1, 5, 8, 64, 257):
        table = participation_table(T)
        assert table.shape == (T,)
        assert list(table) == [participation_count(tp, T) for tp in range(1, T + 1)]


def test_participation_table_matches_the_per_t_loop():
    # the int64 counts of the array build equal the loop's, dense up to 512,
    # then power-of-two neighborhoods up to 2**14
    horizons = list(range(1, 513))
    for m in range(9, 15):
        horizons += [2 ** m - 1, 2 ** m, 2 ** m + 1]
    for T in horizons:
        table = participation_table(T)
        assert table.dtype == np.int64
        assert np.array_equal(table, reference_participation_table(T))


def test_participation_bound_many_T():
    # the worst trader appears in exactly floor(log2 T) + 1 = T.bit_length()
    # published states, for every T up to 2**12 + 1 and at 2**13 and 2**14;
    # the noise depth ceil(log2 T) is one less exactly at T = 2**k, k >= 1
    for T in [*range(1, 2 ** 12 + 2), 2 ** 13, 2 ** 14]:
        table = participation_table(T)
        cap = int(math.floor(math.log2(T))) + 1
        assert table.max() == cap == T.bit_length()
        if T & (T - 1) == 0:
            assert table[0] == cap  # arrival 1 sits on every left spine node
        assert tree_depth(T) == cap - (T > 1 and T & (T - 1) == 0)


def test_take_draws_ahead_what_sample_bundle_gives_and_stops_at_the_horizon():
    # at d = BLOCK_FLOATS // 4 the buffer holds 4 bundles, so the takes
    # refill it, and each take's norms must still be its bundles'
    T = 20
    for d in (3, BLOCK_FLOATS // 4):
        led = NoiseLedger(d=d, scale=4.0, T=T)
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        for k in (1, 5, 7, 2):
            z, norms = led.take(rng, k)
            led.t += k  # as the advance after a session's take does
            assert np.array_equal(z, [sample_bundle(d, 4.0, twin) for _ in range(k)])
            assert norms.tolist() == l2_norms(z).tolist()
        assert rng.bit_generator.state != twin.bit_generator.state  # drawn ahead
        with pytest.raises(InvalidStateError, match="horizon"):
            led.take(rng, 6)  # 15 taken, 5 left
        z, norms = led.take(rng, 5)
        assert np.array_equal(z, [sample_bundle(d, 4.0, twin) for _ in range(5)])
        assert norms.tolist() == l2_norms(z).tolist()
        assert rng.bit_generator.state == twin.bit_generator.state  # T * d uniforms


def test_bundle_gap_total():
    # sum of low_bit(t) for t = 1..T'-1 is (T'/2) log2 T' at powers of two
    for m in range(1, 11):
        Tp = 2 ** m
        partial = bundle_gap_total(Tp, include_final=False)
        assert partial == (Tp // 2) * m
        assert bundle_gap_total(Tp) == partial + Tp  # final bundle rides to 2T'
    assert bundle_gap_total(1) == 1
    assert bundle_gap_total(6, include_final=False) == 1 + 2 + 1 + 4 + 1


def test_sample_bundle_statistics():
    rng = np.random.default_rng(1)
    scale = 8.0
    n = 100_000
    draws = np.concatenate([sample_bundle(1, scale, rng) for _ in range(n)])
    # |z| is exponential(scale): mean b, so SE = b / sqrt(n)
    se = scale / math.sqrt(n)
    assert abs(np.abs(draws).mean() - scale) <= 3 * se
    # variance 2 b^2, SE of the variance estimate ~ sqrt(20) b^2 / sqrt(n)
    se_var = math.sqrt(20.0) * scale ** 2 / math.sqrt(n)
    assert abs(draws.var() - 2 * scale ** 2) <= 3 * se_var
    assert abs(draws.mean()) <= 3 * math.sqrt(2) * scale / math.sqrt(n)


def test_sample_bundle_deterministic():
    a = sample_bundle(4, 2.0, np.random.default_rng(9))
    b = sample_bundle(4, 2.0, np.random.default_rng(9))
    assert np.array_equal(a, b)
    with pytest.raises(InvalidParameterError):
        sample_bundle(0, 1.0, np.random.default_rng(0))
    with pytest.raises(InvalidParameterError):
        sample_bundle(2, -1.0, np.random.default_rng(0))


def test_ledger_lifecycle():
    rng = np.random.default_rng(2)
    led = NoiseLedger(d=2, scale=4.0, T=16)
    for t in range(1, 17):
        _turn_over(led, sample_bundle(2, 4.0, rng))
        assert led.t == t
        path, u = [], t  # the stack {t, s(t), s(s(t)), ...} down to 0, s(t) = t & (t - 1)
        while u:
            path.append(u)
            u &= u - 1
        assert [time for time, _ in reversed(held_pairs(led))] == path
        got = led.held_sum()
        expect = noise_path_sum(t, dict(held_pairs(led)))
        assert got == pytest.approx(expect, abs=1e-12)
    # t = 16: held is exactly {16}
    assert [time for time, _ in held_pairs(led)] == [16]


def test_ledger_noise_off_is_zero():
    rng = np.random.default_rng(3)
    led = NoiseLedger(d=3, scale=4.0, T=4, noise_off=True)
    z, norms = led.take(rng, 1)
    led.begin_step()
    led.new_bundle(z[0])
    assert np.array_equal(z, np.zeros((1, 3))) and np.array_equal(norms, np.zeros(1))
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state
    assert np.array_equal(held_pairs(led)[0][1], np.zeros(3))
    assert np.array_equal(led.held_sum(), np.zeros(3))


def test_ledger_misuse_errors():
    rng = np.random.default_rng(4)
    led = NoiseLedger(d=1, scale=1.0, T=4)
    with pytest.raises(InvalidStateError):
        led.mark_sold()  # nothing bought yet
    led.begin_step()
    led.new_bundle(sample_bundle(1, 1.0, rng))
    with pytest.raises(InvalidStateError):
        led.new_bundle(sample_bundle(1, 1.0, rng))  # double buy in one step
    led.mark_sold()
    with pytest.raises(InvalidStateError):
        led.mark_sold()  # double sell: the stack is empty again
    with pytest.raises(InvalidStateError):
        led.verify_held()  # step 1 must hold its bundle

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linkgamma.exactnum import Series, series_compose
from linkgamma.gamma import GammaSeq
from linkgamma.transforms import (
    _SHIFT_STEPS_PER_INDEX,
    apply_shift,
    beta_from_gamma,
    mixed_gamma0,
    swap_seq,
)

MOBIUS = Series((0,) + (-1, 1) * 8)


def rand_seq(rng, order):
    return GammaSeq(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


# ---------------------------------------------------------------- apply_shift


def test_shift_collapses_alternating_sequence():
    assert apply_shift(GammaSeq((1, -1, 1, -1)), 1) == GammaSeq((1, 0, 0, 0))


def test_shift_zero_is_identity():
    s = GammaSeq((3, 1, 4, 1, 5))
    assert apply_shift(s, 0) == s


def test_negative_shift_recurrence():
    assert apply_shift(GammaSeq((1, 0, 0, 0)), -1) == GammaSeq((1, -1, 1, -1))


def test_shift_preserves_order_and_inverts():
    rng = random.Random(101)
    for _ in range(60):
        s = rand_seq(rng, rng.randint(0, 16))
        for n in range(-8, 9):
            shifted = apply_shift(s, n)
            assert shifted.order == s.order
            assert apply_shift(shifted, -n) == s


def binom(n, j):
    # generalized binomial coefficient, also for negative n
    return math.comb(n, j) if n >= 0 else (-1) ** j * math.comb(j - n - 1, j)


def binomial_shift(e, n):
    # T^n multiplies the generating function by (1+x)^n
    return tuple(sum(binom(n, j) * e[k - j] for j in range(k + 1)) for k in range(len(e)))


def sequences(max_order):
    return st.lists(st.integers(), min_size=1, max_size=max_order + 1).map(
        lambda e: GammaSeq(tuple(e))
    )


@given(s=sequences(40), n=st.integers(-40, 40))
@example(s=GammaSeq((1,)), n=-1)
@example(s=GammaSeq((2, -3)), n=2)
@example(s=GammaSeq(tuple(range(40, -1, -1))), n=-40)
@example(s=GammaSeq(tuple(range(-19, 21))), n=39)
def test_shift_matches_closed_binomial_formula(s, n):
    assert apply_shift(s, n).entries == binomial_shift(s.entries, n)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 30])
def test_shift_step_and_binomial_paths_meet_at_the_threshold(order):
    # |n| up to the edge takes the steps, beyond it the binomial sum
    s = rand_seq(random.Random(order), order)
    edge = _SHIFT_STEPS_PER_INDEX * order
    for n in (edge - 1, edge, edge + 1, edge + 2, 10**12 + 7):
        for signed in (n, -n):
            assert apply_shift(s, signed).entries == binomial_shift(s.entries, signed)


# ------------------------------------------------------------------- swap_seq


def test_swap_examples():
    assert swap_seq(GammaSeq((0, 1, 0, 0))) == GammaSeq((0, -1, 1, -1))
    assert swap_seq(GammaSeq((9, 0, 0, 0))) == GammaSeq((9, 0, 0, 0))
    s = GammaSeq((1, 1, 2, 4, 8))
    assert swap_seq(s) == GammaSeq((1, -1, 3, -9, 27))
    assert swap_seq(swap_seq(s)) == s


def test_swap_is_involution():
    rng = random.Random(103)
    for _ in range(200):
        s = rand_seq(rng, 16)
        assert swap_seq(swap_seq(s)) == s


def test_swap_matches_generating_function_substitution():
    # independent route: compose the tail with the expansion of -x/(1+x)
    rng = random.Random(107)
    for _ in range(60):
        s = rand_seq(rng, 16)
        tail = Series((0,) + s.entries[1:])
        swapped = swap_seq(s)
        assert series_compose(tail, MOBIUS, 16) == Series((0,) + swapped.entries[1:])


@given(s=sequences(60))
@example(s=GammaSeq((5,)))
@example(s=GammaSeq((5, -7)))
def test_swap_entries_match_mixed_values(s):
    swapped = swap_seq(s)
    assert swapped.order == s.order
    assert swapped.entries[0] == s.entries[0]
    for k in range(1, s.order + 1):
        assert swapped.entries[k] == mixed_gamma0(s, 0, k)


# --------------------------------------------------------------- mixed_gamma0


def test_mixed_examples():
    s = GammaSeq((5, 7, -2, 4))
    assert mixed_gamma0(s, 0, 1) == -7
    assert mixed_gamma0(GammaSeq((0, 0, 1, 0, 0)), 1, 1) == -1
    assert mixed_gamma0(GammaSeq((3, 2, 0, 0, 0)), 1, 3) == 0


def test_mixed_matches_comb_sum():
    # oracle: the defining sum with a fresh math.comb per term
    rng = random.Random(131)
    s = GammaSeq(tuple(rng.randint(-10**30, 10**30) for _ in range(161)))
    for p in range(81):
        for l in range(1, 81):
            acc = sum(math.comb(l - 1, j - 1) * s.entries[p + j] for j in range(1, l + 1))
            assert mixed_gamma0(s, p, l) == (-1) ** l * acc


def test_mixed_order_and_argument_errors():
    s = GammaSeq((0, 1, 2))
    with pytest.raises(ValueError, match="insufficient sequence order"):
        mixed_gamma0(s, 1, 2)
    with pytest.raises(ValueError):
        mixed_gamma0(s, -1, 1)
    with pytest.raises(ValueError):
        mixed_gamma0(s, 0, 0)


# ------------------------------------------------------------ beta_from_gamma


def test_beta_examples():
    assert beta_from_gamma(GammaSeq((0, 0, 1, 0, 0)), 1) == -1
    assert beta_from_gamma(GammaSeq((0, 0, 0, 0, 0)), 2) == 0
    assert beta_from_gamma(GammaSeq((0, 0, 0, 1, 1, 0, 0)), 2) == 2


def test_beta_order_errors():
    with pytest.raises(ValueError, match="insufficient sequence order"):
        beta_from_gamma(GammaSeq((0, 1, 2)), 2)
    with pytest.raises(ValueError):
        beta_from_gamma(GammaSeq((0, 1, 2)), 0)


def test_beta_equals_diagonal_mixed_value():
    rng = random.Random(109)
    for _ in range(100):
        s = rand_seq(rng, 12)
        for k in range(1, 7):
            assert beta_from_gamma(s, k) == mixed_gamma0(s, k, k)


# ------------------------------------------------------------------ linearity


def test_every_operation_is_additive():
    rng = random.Random(113)
    for _ in range(40):
        a = rand_seq(rng, 12)
        b = rand_seq(rng, 12)
        total = GammaSeq(tuple(x + y for x, y in zip(a.entries, b.entries)))
        n = rng.randint(-6, 6)
        assert apply_shift(total, n).entries == tuple(
            x + y for x, y in zip(apply_shift(a, n).entries, apply_shift(b, n).entries)
        )
        assert swap_seq(total).entries == tuple(
            x + y for x, y in zip(swap_seq(a).entries, swap_seq(b).entries)
        )
        assert mixed_gamma0(total, 2, 3) == mixed_gamma0(a, 2, 3) + mixed_gamma0(b, 2, 3)
        assert beta_from_gamma(total, 3) == beta_from_gamma(a, 3) + beta_from_gamma(b, 3)

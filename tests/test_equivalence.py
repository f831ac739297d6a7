import random

import pytest

from linkgamma import equivalence
from linkgamma.equivalence import (
    EquivVerdict,
    are_equivalent,
    canonicalize,
    ratfn_equivalent,
)
from linkgamma.exactnum import (
    Poly,
    RatFn,
    ratfn_reduce,
    series_expand_at_one,
)
from linkgamma.gamma import (
    GammaSeq,
    SeifertPresentation,
    gamma_seq,
    gen_presentation,
    h_closed_form,
)
from linkgamma.transforms import apply_shift


def times_tpow(f, n):
    # t^n f for any integer n
    if n >= 0:
        return RatFn(Poly((0,) * n + f.num.coeffs), f.den)
    return RatFn(f.num, Poly((0,) * -n + f.den.coeffs))


def rand_ratfn(rng, max_deg):
    # a random numerator over a random denominator with no pole at t = 1
    num = Poly(tuple(rng.randint(-9, 9) for _ in range(max_deg + 1)))
    while True:
        den = Poly(tuple(rng.randint(-9, 9) for _ in range(max_deg + 1)))
        if den(1) != 0:
            return ratfn_reduce(num, den)


def rand_nonzero_seq(rng, order):
    while True:
        entries = tuple(rng.randint(-9, 9) for _ in range(order + 1))
        if any(entries[:order]):
            return GammaSeq(entries)


def nonzero_head_sequence(genus, order):
    # a generated gamma sequence whose entry 0 or 1 is nonzero, so the
    # exponent is pinned by its first two entries
    seed = 0
    while True:
        s = gamma_seq(gen_presentation(seed, genus, 3), order)
        if any(s.entries[:2]):
            return s
        seed += 1


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_order_1000_shifts_are_equivalent(genus):
    s = nonzero_head_sequence(genus, 1000)
    canon = canonicalize(s)[0]
    for m in (0, 1, 500, 1000 - 2 * genus, 1000, 1003):
        shifted = apply_shift(s, m)
        assert are_equivalent(shifted, s) == EquivVerdict.equivalent(-m)
        assert canonicalize(shifted)[0] == canon


# ------------------------------------------------------------- are_equivalent


def test_equiv_shifted_pair():
    verdict = are_equivalent(GammaSeq((1, 3, 0, 0, 0)), GammaSeq((1, 4, 3, 0, 0)))
    assert verdict == EquivVerdict.equivalent(1)


def test_equiv_bumped_pair_is_distinct():
    verdict = are_equivalent(GammaSeq((1, 3, 1, 0, 0)), GammaSeq((1, 4, 3, 0, 0)))
    assert verdict == EquivVerdict.distinct(2)


def test_equiv_alternating_vs_unit_step():
    verdict = are_equivalent(GammaSeq((1, -1, 1, -1)), GammaSeq((1, 0, 0, 0)))
    assert verdict == EquivVerdict.equivalent(1)


def test_equiv_all_zero_is_indeterminate():
    verdict = are_equivalent(GammaSeq((0, 0, 0, 0)), GammaSeq((0, 0, 0, 0)))
    assert verdict == EquivVerdict.indeterminate()


def test_equiv_zero_vs_nonzero_is_distinct():
    verdict = are_equivalent(GammaSeq((0, 0, 0)), GammaSeq((0, 5, 0)))
    assert verdict == EquivVerdict.distinct(1)
    verdict = are_equivalent(GammaSeq((0, 5, 0)), GammaSeq((0, 0, 0)))
    assert verdict == EquivVerdict.distinct(1)


def test_equiv_different_leading_data():
    assert are_equivalent(GammaSeq((0, 2, 0)), GammaSeq((2, 0, 0))) == EquivVerdict.distinct(0)
    assert are_equivalent(GammaSeq((3, 0, 0)), GammaSeq((2, 0, 0))) == EquivVerdict.distinct(0)


def test_equiv_non_integral_ratio_is_distinct():
    # entry after the lead moves by multiples of the lead only
    assert are_equivalent(GammaSeq((2, 1, 0)), GammaSeq((2, 2, 0))) == EquivVerdict.distinct(1)


def test_equiv_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        are_equivalent(GammaSeq((1, 2)), GammaSeq((1, 2, 3)))


def test_equiv_str_forms():
    assert str(EquivVerdict.equivalent(-2)) == "equivalent(-2)"
    assert str(EquivVerdict.distinct(4)) == "distinct(4)"
    assert str(EquivVerdict.indeterminate()) == "indeterminate"


def test_shift_soundness():
    rng = random.Random(211)
    for _ in range(60):
        s = rand_nonzero_seq(rng, 16)
        for n in range(-8, 9):
            assert are_equivalent(s, apply_shift(s, n)) == EquivVerdict.equivalent(n)


def test_symmetry():
    rng = random.Random(223)
    for _ in range(60):
        s = rand_nonzero_seq(rng, 12)
        t = apply_shift(s, rng.randint(-6, 6))
        forward = are_equivalent(s, t)
        backward = are_equivalent(t, s)
        assert forward.kind == "equivalent"
        assert backward == EquivVerdict.equivalent(-forward.shift)


def scaled(seed, genus, factor, order):
    # the documents g3.json and g3-times-3.json of the golden transcripts
    p = gen_presentation(seed, genus, 3)
    v3 = [factor * e for e in p.v3]
    return gamma_seq(SeifertPresentation(genus, p.seifert_matrix, p.v2, v3, 1), order)


@pytest.mark.parametrize("order", [300, 1000, 3000])
def test_golden_distinct_pair_at_long_orders(order):
    a, b = scaled(6, 3, 1, order), scaled(6, 3, 3, order)
    assert are_equivalent(a, b) == EquivVerdict.distinct(2)
    assert are_equivalent(GammaSeq(a.entries), GammaSeq(b.entries)) == EquivVerdict.distinct(2)


def test_a_difference_in_the_prefix_is_found_without_the_whole_shift(monkeypatch):
    orders = []

    def shifting(s, n):
        orders.append(s.order)
        return apply_shift(s, n)

    monkeypatch.setattr(equivalence, "apply_shift", shifting)
    a, b = scaled(6, 3, 1, 1000), scaled(6, 3, 3, 1000)
    assert are_equivalent(a, b) == EquivVerdict.distinct(2)
    assert orders and max(orders) < 1000
    # a difference past the prefix: one shift of the prefix, one of the whole
    bumped = GammaSeq(a.entries[:900] + (a.entries[900] + 1,) + a.entries[901:])
    orders.clear()
    assert are_equivalent(a, bumped) == EquivVerdict.distinct(900)
    assert len(orders) == 2 and orders[0] < orders[1] == 1000


# --------------------------------------------------------------- canonicalize


def test_canonicalize_examples():
    seq, n = canonicalize(GammaSeq((1, -1, 1, -1)))
    assert (seq, n) == (GammaSeq((1, 0, 0, 0)), 1)
    seq, n = canonicalize(GammaSeq((2, 5, 0, 0)))
    assert n == -2
    assert seq == GammaSeq((2, 1, -4, 7))
    seq, n = canonicalize(GammaSeq((1, 0, 0, 0)))
    assert (seq, n) == (GammaSeq((1, 0, 0, 0)), 0)


def test_canonicalize_zero_sequence():
    z = GammaSeq((0, 0, 0))
    assert canonicalize(z) == (z, 0)


def test_canonicalize_idempotent_and_class_constant():
    rng = random.Random(227)
    for _ in range(60):
        s = rand_nonzero_seq(rng, 16)
        canon, n = canonicalize(s)
        assert apply_shift(s, n) == canon
        assert canonicalize(canon) == (canon, 0)
        for m in (-5, -2, 1, 3, 7):
            assert canonicalize(apply_shift(s, m))[0] == canon


def test_equivalent_iff_same_canonical_form():
    rng = random.Random(229)
    for _ in range(40):
        s = rand_nonzero_seq(rng, 10)
        t = apply_shift(s, rng.randint(-5, 5))
        assert canonicalize(s)[0] == canonicalize(t)[0]
        u = rand_nonzero_seq(rng, 10)
        same = canonicalize(s)[0] == canonicalize(u)[0]
        assert (are_equivalent(s, u).kind == "equivalent") == same


# ----------------------------------------------------------- ratfn_equivalent


def test_ratfn_equivalent_examples():
    h = ratfn_reduce(Poly((2, -1)), Poly((3, -2)))
    assert ratfn_equivalent(h, times_tpow(h, 3)) == -3
    shifted = ratfn_reduce(Poly((0, 2, -1)), Poly((3, -2)))
    assert ratfn_equivalent(h, shifted) == -1
    a = ratfn_reduce(Poly((1, 1)), Poly((1,)))
    b = ratfn_reduce(Poly((-1, 1)), Poly((1,)))
    assert ratfn_equivalent(a, b) is None


def test_ratfn_equivalent_zero_handling():
    zero = ratfn_reduce(Poly(()), Poly((1,)))
    one = ratfn_reduce(Poly((1,)), Poly((1,)))
    assert ratfn_equivalent(zero, zero) == 0
    assert ratfn_equivalent(zero, one) is None
    with pytest.raises(ZeroDivisionError):
        ratfn_equivalent(one, zero)


def test_ratfn_equivalent_power_quotient_examples():
    g = ratfn_reduce(Poly((1, 1)), Poly((-2, 1)))
    f = ratfn_reduce(Poly((0, 0, 1, 1)), Poly((-2, 1)))  # t^2 (t+1)/(t-2)
    assert ratfn_equivalent(f, g) == 2
    a = ratfn_reduce(Poly((2, -1)), Poly((3, -2)))
    b = ratfn_reduce(Poly((0, 2, -1)), Poly((3, -2)))
    assert ratfn_equivalent(a, b) == -1
    assert ratfn_equivalent(
        ratfn_reduce(Poly((1, 1)), Poly((1,))),
        ratfn_reduce(Poly((2, 1)), Poly((1,))),
    ) is None


def test_ratfn_equivalent_power_quotient_zero_cases():
    zero = ratfn_reduce(Poly(()), Poly((1,)))
    one = ratfn_reduce(Poly((1,)), Poly((1,)))
    assert ratfn_equivalent(zero, one) is None
    with pytest.raises(ZeroDivisionError):
        ratfn_equivalent(one, zero)


def test_ratfn_equivalent_detects_constructed_powers():
    rng = random.Random(43)
    for _ in range(30):
        f = rand_ratfn(rng, 3)
        if not f:
            continue
        assert ratfn_equivalent(f, f) == 0
        for n in range(-16, 17):
            assert ratfn_equivalent(times_tpow(f, n), f) == n



def test_ratfn_equivalent_compares_denominators():
    # equal numerators: only the denominators tell these classes apart
    f = ratfn_reduce(Poly((1,)), Poly((-2, 1)))
    assert ratfn_equivalent(f, ratfn_reduce(Poly((1,)), Poly((-3, 1)))) is None
    assert ratfn_equivalent(f, ratfn_reduce(Poly((1,)), Poly((0, 0, -2, 1)))) == 2
    assert ratfn_equivalent(ratfn_reduce(Poly((1,)), Poly((0, 0, -2, 1))), f) == -2

def test_bridge_between_function_and_sequence_equivalence():
    # multiplying h by t^n matches shifting the expansion n times
    for i in range(6):
        p = gen_presentation(seed=50 + i, genus=1 + i % 3, bound=3)
        h = h_closed_form(p)
        base = gamma_seq(p, 12)
        if not h:
            continue
        for n in range(-4, 5):
            scaled = times_tpow(h, n)
            assert ratfn_equivalent(scaled, h) == n
            expanded = GammaSeq(series_expand_at_one(scaled, 12).coeffs)
            if any(base.entries[:12]):
                assert are_equivalent(base, expanded) == EquivVerdict.equivalent(n)
            assert expanded == apply_shift(base, n)

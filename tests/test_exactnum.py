import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgamma import exactnum
from linkgamma.exactnum import (
    Poly,
    RatFn,
    Series,
    poly_exact_div,
    poly_gcd,
    poly_str,
    ratfn_eval,
    ratfn_reduce,
    series_compose,
    series_expand_at_one,
)


def rand_poly(rng, max_deg, nonzero=False):
    while True:
        p = Poly(tuple(rng.randint(-9, 9) for _ in range(max_deg + 1)))
        if p or not nonzero:
            return p


def rand_ratfn(rng, max_deg):
    # den(1) = +-1, as for every h: the expansion at t = 1 is over the integers
    num = rand_poly(rng, max_deg)
    rest = [rng.randint(-9, 9) for _ in range(max_deg)]
    return ratfn_reduce(num, Poly([rng.choice((1, -1)) - sum(rest)] + rest))


# ---------------------------------------------------------------- Poly basics


def test_poly_trims_trailing_zeros():
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert Poly((0, 0)).coeffs == ()
    assert not Poly(())
    assert Poly(()).degree() == -1


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((1.5,))
    with pytest.raises(TypeError):
        Poly((True, False, True))


def test_coefficients_are_ints_only():
    with pytest.raises(TypeError, match="int coefficient required, got Fraction"):
        Poly((Fraction(1, 2),))
    with pytest.raises(TypeError):
        Poly((Fraction(2, 1),))
    with pytest.raises(TypeError):
        Series((0, Fraction(1, 3)))
    with pytest.raises(TypeError):
        Poly((1, 2)) + Fraction(1, 2)


def test_bool_is_not_a_coefficient():
    with pytest.raises(TypeError):
        Series((True,))
    # a bool is no Poly: comparing with one builds no coefficient, so it
    # does not raise, and is never equal
    assert Poly((1,)) != True
    assert Poly(()) != False
    assert Poly((1, 1)) != True


def test_poly_arithmetic_and_eval():
    p = Poly((1, 2))  # 1 + 2t
    q = Poly((0, 0, 3))  # 3t^2
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p + q).coeffs == (1, 2, 3)
    assert (p - p) == Poly(())
    assert p(Fraction(1, 2)) == 2
    assert (p * p).coeffs == (1, 4, 4)


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        a = rand_poly(rng, 6)
        b = rand_poly(rng, 3, nonzero=True)
        q, r = divmod(a, b)
        assert q * b + r == a
        if b.coeffs[-1] in (1, -1):
            assert r.degree() < b.degree()
        c = rand_poly(rng, 3)
        assert divmod(b * c, b) == (c, Poly(()))


def test_poly_divmod_stops_where_the_lead_does_not_divide():
    # 2t does not divide t^2 + 1 in Z[t]: no quotient coefficient is taken,
    # nor one past the first that fails
    assert divmod(Poly((1, 0, 1)), Poly((0, 2))) == (Poly(()), Poly((1, 0, 1)))
    assert divmod(Poly((0, 2, 1)), Poly((0, 2))) == (Poly(()), Poly((0, 2, 1)))
    # 2t^2 + 4 = (2t + 4)(t - 2) + 12, every step exact
    assert divmod(Poly((4, 0, 2)), Poly((4, 2))) == (Poly((-2, 1)), Poly((12,)))
    # 4t^2 + t = 2t (2t) + t, then 2 does not divide 1
    assert divmod(Poly((0, 1, 4)), Poly((0, 2))) == (Poly((0, 2)), Poly((0, 1)))
    with pytest.raises(ArithmeticError):
        poly_exact_div(Poly((0, 1, 4)), Poly((0, 2)))


def test_poly_division_by_the_zero_poly_raises():
    for a in (Poly(()), Poly((1,)), Poly((0, 3, -2))):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            divmod(a, Poly(()))
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            a % Poly(())


def test_constant_poly_is_not_its_scalar():
    for c in (3, -7, 0):
        assert Poly((c,)) != c and c != Poly((c,))
        assert Poly((c,)) not in {c} and c not in {Poly((c,))}
        assert hash(Poly((c,))) == hash(Poly((c,)).coeffs)
    assert Poly((3,)) in {Poly((3,))} and Poly((0, 3)) not in {3}


def test_polys_combine_only_with_polys():
    one, x1 = Poly((1,)), Poly((1, 1))
    for op in (lambda: one + 1, lambda: 1 + one, lambda: one - 1, lambda: 1 - one,
               lambda: divmod(x1, 2), lambda: x1 % 2, lambda: RatFn(1),
               lambda: RatFn(one, 2), lambda: sum([one, x1])):
        with pytest.raises(TypeError):
            op()
    assert not hasattr(Poly, "__radd__") and not hasattr(Poly, "__rsub__")
    # an int scales a Poly from either side
    assert 2 * x1 == x1 * 2 == Poly((2, 2))
    assert sum([one, x1], Poly(())) == Poly((2, 1))


def test_poly_gcd_is_primitive_common_divisor():
    a = Poly((-1, 0, 1))  # t^2 - 1
    b = Poly((-1, 1))  # t - 1
    g = poly_gcd(a, b)
    assert g == Poly((-1, 1))
    assert a % g == Poly(())
    # hand Euclid: 2t - t^2 and 3 - 2t share no factor
    assert poly_gcd(Poly((0, 2, -1)), Poly((3, -2))) == Poly((1,))
    # contents are dropped and the leading coefficient made positive
    assert poly_gcd(Poly((6, -6)), Poly((-4, 0, 4))) == Poly((-1, 1))
    assert poly_gcd(Poly((-3, 0, 3)), Poly(())) == Poly((-1, 0, 1))
    assert poly_gcd(Poly(()), Poly(())) == Poly(())


def test_poly_str():
    assert poly_str(Poly((-2, 1))) == "-2 + t"
    assert poly_str(Poly((-3, 2))) == "-3 + 2t"
    assert poly_str(Poly((0, 0, 1))) == "t^2"
    assert poly_str(Poly(())) == "0"


# ---------------------------------------------------------------- ratfn_reduce


def test_reduce_identity_case():
    f = ratfn_reduce(Poly((-1, 1)), Poly((-1, 1)))
    assert f.num == Poly((1,)) and f.den == Poly((1,))


def test_reduce_already_coprime_pair():
    # 2t - t^2 over 3 - 2t has trivial gcd; canonical form flips the sign
    # so the denominator's leading coefficient is positive
    f = ratfn_reduce(Poly((0, 2, -1)), Poly((3, -2)))
    assert f.num == Poly((0, -2, 1))
    assert f.den == Poly((-3, 2))


def test_reduce_difference_of_squares():
    f = ratfn_reduce(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert f.num == Poly((1, 1)) and f.den == Poly((1,))


def test_reduce_scale_invariance_and_idempotence():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng, 4)
        q = rand_poly(rng, 4, nonzero=True)
        a = rand_poly(rng, 3, nonzero=True)
        f = ratfn_reduce(p, q)
        assert ratfn_reduce(a * p, a * q) == f
        assert ratfn_reduce(f.num, f.den) == f


def test_a_constant_denominator_stays_an_integer():
    # the canonical form scales by the gcd of all coefficients, not den's
    f = RatFn(Poly((1,)), Poly((2,)))
    assert (f.num.coeffs, f.den.coeffs) == ((1,), (2,))
    g = RatFn(Poly((4, -2)), Poly((-6,)))
    assert (g.num.coeffs, g.den.coeffs) == ((-2, 1), (3,))


def test_reduce_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ratfn_reduce(Poly((1,)), Poly(()))


# Euclid over Q on Fraction lists, independent of exactnum's integer gcd:
# the reduction RatFn applied to every pair before the certificate mod p,
# and the oracle for the integer flow.
def q_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= q[i] * bj
    while a and a[-1] == 0:
        a.pop()
    return q, a


def q_gcd(a, b):
    a, b = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while b:
        a, b = b, q_divmod(a, b)[1]
    return a


def primitive_ints(*parts):
    """The Fraction lists scaled by one rational to int lists whose
    coefficients together have gcd 1, the last list's leading one positive."""
    flat = [c for part in parts for c in part]
    mult = math.lcm(*[c.denominator for c in flat])
    content = math.gcd(*[int(c * mult) for c in flat])
    if parts[-1][-1] < 0:
        content = -content
    return [Poly([int(c * mult) // content for c in part]) for part in parts]


def euclid_reduce(num, den):
    if not num:
        return Poly(()), Poly((1,))
    g = q_gcd(num, den)
    (n, r), (d, s) = (q_divmod([Fraction(c) for c in p.coeffs], g) for p in (num, den))
    assert not r and not s
    return tuple(primitive_ints(n, d))


def assert_canonical_as_euclid(num, den):
    f = RatFn(num, den)
    n, d = euclid_reduce(num, den)
    # repr compares types too: an integral coefficient must be an int
    assert (repr(f.num), repr(f.den)) == (repr(n), repr(d))


P = (1 << 61) - 1
COEFFS = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda k, r: k * P + r, st.integers(-2, 2), st.integers(-1, 1)),
)
POLYS = st.lists(COEFFS, max_size=5).map(Poly)
NONZERO = POLYS.filter(bool)
FACTORS = st.lists(COEFFS, min_size=2, max_size=4).map(Poly).filter(lambda p: p.degree() > 0)


@settings(deadline=None, max_examples=300)
@given(POLYS, NONZERO, FACTORS)
def test_reduce_matches_euclid_over_q(a, b, c):
    assert_canonical_as_euclid(a * c, b * c)
    assert_canonical_as_euclid(a, b)


@settings(deadline=None, max_examples=300)
@given(POLYS, POLYS, FACTORS)
def test_poly_gcd_is_euclid_over_q_made_primitive(a, b, c):
    for x, y in ((a * c, b * c), (a, b)):
        g = q_gcd(x, y)
        assert poly_gcd(x, y) == (primitive_ints(g)[0] if g else Poly(()))


def count_euclid_calls(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(exactnum, "poly_gcd", counted)
    return calls


@pytest.mark.parametrize("num, den", [
    # lc(den) divisible by p: the certificate does not apply
    (Poly((1,)), Poly((1, P))),
    (Poly((0, 1)), Poly((3, 2 * P))),
    # ... which matters: the common factor 1 + pt vanishes to 1 mod p
    (Poly((1, P)), Poly((3, 1 + 3 * P, P))),
    # num nonzero but zero mod p
    (Poly((P, P)), Poly((2, 1))),
    (Poly((0, 0, -P)), Poly((1, 1, 1))),
    # t and t + p: coprime over Q, not mod p
    (Poly((0, 1)), Poly((P, 1))),
    (Poly((P, 1)), Poly((0, 1))),
    # a true common factor: the unreduced h of tests/golden_cli.json's
    # common-factor presentation, (2 - t)^2 (1 - t) / (2 - t)^2
    (Poly((4, -8, 5, -1)), Poly((4, -4, 1))),
])
def test_certificate_edge_cases_fall_back_to_euclid(monkeypatch, num, den):
    calls = count_euclid_calls(monkeypatch)
    assert_canonical_as_euclid(num, den)
    assert len(calls) == 1


@pytest.mark.parametrize("num, den", [
    (Poly((1, 2, 3)), Poly((-4,))),  # constant den
    (Poly((3, 18)), Poly((4,))),  # (1/2 + 3t) / (2/3), scaled by 6
    (Poly((0, 2, -1)), Poly((3, -2))),  # negative leading coefficient
    (Poly((5,)), Poly((6, -4, -2))),  # den with content 2 and a negative lead
    (Poly((4, 12)), Poly((-6, 9))),  # (1/3 + t) / (-1/2 + 3t/4), scaled by 12
    (Poly((1, P)), Poly((2, 1))),  # p divides num's lead only
])
def test_certified_pairs_skip_euclid(monkeypatch, num, den):
    calls = count_euclid_calls(monkeypatch)
    assert_canonical_as_euclid(num, den)
    assert calls == []


def test_zero_numerator_is_zero_over_one(monkeypatch):
    calls = count_euclid_calls(monkeypatch)
    for den in (Poly((1,)), Poly((-3, P)), Poly((0, 0, -2))):
        f = RatFn(Poly(()), den)
        assert (f.num.coeffs, f.den.coeffs) == ((), (1,))
    assert calls == []


# ---------------------------------------------------------------- ratfn_eval


def test_eval_examples():
    f = ratfn_reduce(Poly((2, -1)), Poly((3, -2)))
    assert ratfn_eval(f, 1) == 1
    one = ratfn_reduce(Poly((1,)), Poly((1,)))
    assert ratfn_eval(one, Fraction(22, 7)) == 1
    pole = ratfn_reduce(Poly((0, 0, 1)), Poly((-1, 1)))
    with pytest.raises(ZeroDivisionError):
        ratfn_eval(pole, 1)


# ------------------------------------------------------- series_expand_at_one


def test_expand_examples():
    inv_t = ratfn_reduce(Poly((1,)), Poly((0, 1)))
    assert series_expand_at_one(inv_t, 3) == Series((1, -1, 1, -1))
    f = ratfn_reduce(Poly((2, -1)), Poly((3, -2)))
    assert series_expand_at_one(f, 4) == Series((1, 1, 2, 4, 8))
    const = ratfn_reduce(Poly((5,)), Poly((1,)))
    assert series_expand_at_one(const, 2) == Series((5, 0, 0))


def test_expand_pads_and_truncates_the_numerator():
    zero = ratfn_reduce(Poly(()), Poly((1, 1)))
    assert series_expand_at_one(zero, 0) == Series((0,))
    assert series_expand_at_one(zero, 2) == Series((0, 0, 0))
    cube = ratfn_reduce(Poly((0, 0, 0, 1)), Poly((1,)))  # (1 + x)^3
    assert series_expand_at_one(cube, 1) == Series((1, 3))
    assert series_expand_at_one(cube, 5) == Series((1, 3, 3, 1, 0, 0))


def test_series_quotient_with_leading_minus_one():
    # the inputs are negated once and divided as for leading coefficient 1
    num, den = [3, -1, 4, 1, -5], [-1, 2, -7]
    out = exactnum._series_quotient(num, den, 12)
    product = [sum(den[j] * out[k - j] for j in range(len(den)) if j <= k) for k in range(13)]
    assert product == num + [0] * 8
    assert out == [-c for c in exactnum._series_quotient(num, [-d for d in den], 12)]
    assert exactnum._series_quotient((2,), (-1,), 3) == [-2, 0, 0, 0]


def test_expand_pole_at_center():
    f = ratfn_reduce(Poly((1,)), Poly((-1, 1)))
    with pytest.raises(ZeroDivisionError):
        series_expand_at_one(f, 2)


def test_expand_needs_den_one_or_minus_one_at_the_center():
    # 1/(3 - t) is 1/2 at t = 1: its expansion is not over the integers
    with pytest.raises(ValueError):
        series_expand_at_one(RatFn(Poly((1,)), Poly((3, -1))), 3)
    with pytest.raises(ValueError, match="got 2"):
        exactnum._series_quotient((1,), (2, 1), 3)


def test_expand_constant_coefficient_is_value_at_one():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_ratfn(rng, 4)
        s = series_expand_at_one(f, 5)
        assert s.coeffs[0] == ratfn_eval(f, 1)


# ------------------------------------------------------------- series_compose


MOBIUS = Series((0, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1))


def test_compose_examples():
    outer = Series((0, 1, 0, 0))
    inner = Series((0, -1, 1, -1))
    assert series_compose(outer, inner, 3) == Series((0, -1, 1, -1))
    sq = Series((0, 0, 1, 0))
    assert series_compose(sq, inner, 3) == Series((0, 0, 1, -2))
    assert series_compose(Series((7,)), Series((0,)), 0) == Series((7,))


def test_compose_requires_zero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        series_compose(Series((0, 1)), Series((1, 1)), 1)


def test_compose_never_extends_truncations():
    with pytest.raises(ValueError, match="order"):
        series_compose(Series((0, 1)), Series((0, 1)), 3)


def test_mobius_substitution_is_expansion_of_minus_x_over_t():
    f = ratfn_reduce(Poly((1, -1)), Poly((0, 1)))  # (1 - t)/t = -x/(1+x)
    assert series_expand_at_one(f, 16) == MOBIUS


def test_mobius_substitution_is_an_involution():
    rng = random.Random(31)
    for _ in range(40):
        g = Series((0,) + tuple(rng.randint(-9, 9) for _ in range(16)))
        once = series_compose(g, MOBIUS, 16)
        assert series_compose(once, MOBIUS, 16) == g


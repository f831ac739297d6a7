"""Oracles from the paper's structure.

The unreduced denominator of h is ``det M = det(A - (t-1)V)``, which is
``det((2 - t)V - V^T)``: written in ``s = 2 - t`` it is the Alexander
polynomial ``Delta(s) = det(sV - V^T)`` of the distinguished component.
``Delta`` is palindromic of degree 2g (transpose ``sV - V^T``) and
``Delta(1) = det(V - V^T) = 1``.  A trivial Alexander polynomial
(``Delta = s^g`` here, up to units) leaves h no pole other than t = 2.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgamma import exactnum
from linkgamma.equivalence import ratfn_equivalent
from linkgamma.exactnum import Poly, series_expand_at_one
from linkgamma.gamma import (
    GammaSeq,
    SeifertPresentation,
    gamma_seq,
    gen_presentation,
    h_closed_form,
    intersection_form,
)
from linkgamma.polylin import bordered_det, det, identity, mat_mul, mat_vec, transpose
from linkgamma.transforms import apply_shift

TWO_MINUS_T = Poly((2, -1))


def alexander(p):
    """``det(sV - V^T)`` as a polynomial in s."""
    v = p.seifert_matrix
    n = len(v)
    return det([[Poly((-v[j][i], v[i][j])) for j in range(n)] for i in range(n)])


def bordered_den(p):
    # det M as h_closed_form's elimination yields it, M = A - (t-1)V
    a, v = intersection_form(p), p.seifert_matrix
    n = len(v)
    m = [[Poly((a[i][j] + v[i][j], -v[i][j])) for j in range(n)] for i in range(n)]
    den, _ = bordered_det(m, p.v2, [Poly((e, -e)) for e in p.v3], p.lk23)
    return den


def divides(d, p):
    return not divmod(p, d)[1]


@st.composite
def generic_presentations(draw):
    return gen_presentation(draw(st.integers(0, 2**32)), draw(st.integers(1, 5)), 3)


@st.composite
def unimodular(draw, n):
    """An integer n x n matrix of determinant +-1: a product of up to 2n
    moves, each a shear (I with e = +-1 at (r, c), r != c) or, for r == c,
    the sign change of coordinate r."""
    q = identity(n)
    index = st.integers(0, n - 1)
    for r, c, e in draw(st.lists(st.tuples(index, index, st.sampled_from((-1, 1))),
                                 max_size=2 * n)):
        move = [list(row) for row in identity(n)]
        move[r][c] = e if r != c else -1
        q = mat_mul(q, move)
    return q


def congruent(p, q):
    """The presentation of the same link in the basis changed by q:
    V -> q^T V q, v2 -> q^T v2, v3 -> q^T v3."""
    qt = transpose(q)
    v = mat_mul(qt, mat_mul(p.seifert_matrix, q))
    return SeifertPresentation(p.genus, v, mat_vec(qt, p.v2), mat_vec(qt, p.v3), p.lk23)


@st.composite
def trivial_alexander_presentations(draw, max_genus=5):
    # direct sum of [[0, 1], [0, 0]] blocks, in a basis changed by unimodular moves
    genus = draw(st.integers(1, max_genus))
    n = 2 * genus
    v = tuple(tuple(int(j == i + 1 and i % 2 == 0) for j in range(n)) for i in range(n))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    lk23 = draw(st.integers(-3, 3))
    p = SeifertPresentation(genus, v, draw(vector), draw(vector), lk23)
    return congruent(p, draw(unimodular(n)))


@st.composite
def congruent_pairs(draw, min_genus, max_genus):
    p = gen_presentation(draw(st.integers(0, 2**32)), draw(st.integers(min_genus, max_genus)), 3)
    return p, congruent(p, draw(unimodular(2 * p.genus)))


def enlarged(p, rng):
    """An elementary enlargement of p, a presentation of the same link:
    V -> [[V, xi, 0], [0, 0, 1], [0, 0, 0]] with xi random, and v2 and v3
    each extended by (random, 0)."""
    n = 2 * p.genus
    v = [[*row, rng.randint(-3, 3), 0] for row in p.seifert_matrix]
    v += [[0] * (n + 1) + [1], [0] * (n + 2)]
    return SeifertPresentation(p.genus + 1, v, (*p.v2, rng.randint(-3, 3), 0),
                               (*p.v3, rng.randint(-3, 3), 0), p.lk23)


def forward_differences(xs, k):
    for _ in range(k):
        xs = [b - a for a, b in zip(xs, xs[1:])]
    return xs


@settings(max_examples=40, deadline=None)
@given(p=generic_presentations())
def test_alexander_polynomial_structure(p):
    delta = alexander(p)
    padded = delta.coeffs + (0,) * (2 * p.genus + 1 - len(delta.coeffs))
    assert padded == padded[::-1]
    assert delta(1) == 1
    den = bordered_den(p)
    assert delta(TWO_MINUS_T) == den
    assert divides(h_closed_form(p).den, den)


@settings(max_examples=40, deadline=None)
@given(p=trivial_alexander_presentations())
def test_trivial_alexander_polynomial(p):
    assert alexander(p).coeffs == (0,) * p.genus + (1,)
    power = Poly((1,))
    for _ in range(p.genus):
        power = power * TWO_MINUS_T
    h = h_closed_form(p)
    assert divides(h.den, power)
    assert series_expand_at_one(h, 12).coeffs == gamma_seq(p, 12).entries


@settings(max_examples=80, deadline=None)
@given(p=trivial_alexander_presentations(max_genus=8))
def test_trivial_alexander_sequences_are_polynomial_past_2g(p):
    # (1 - x)^g h(1 + x) is a polynomial of degree at most 2g, and at most
    # 2g + n after the shift's factor (1 + x)^n: the g-th differences vanish
    g = p.genus
    s = gamma_seq(p, 120)
    assert not any(forward_differences(s.entries[2 * g + 1:], g))
    for n in (5, 40):
        shifted = apply_shift(GammaSeq(s.entries), n)
        assert not any(forward_differences(shifted.entries[2 * g + 1 + n:], g))


@settings(max_examples=20, deadline=None)
@given(pair=congruent_pairs(4, 8))
def test_a_change_of_basis_leaves_gamma_unchanged(pair):
    p, q = pair
    assert gamma_seq(q, 60) == gamma_seq(p, 60)


@settings(max_examples=20, deadline=None)
@given(pair=congruent_pairs(4, 6))
def test_a_change_of_basis_leaves_h_unchanged(pair):
    p, q = pair
    assert h_closed_form(q) == h_closed_form(p)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_an_enlargement_keeps_gamma_and_h_up_to_a_power_of_t(monkeypatch, seed, genus):
    # an enlarged h carries a common factor that the certificate mod p
    # cannot clear, so its reduction runs the integer gcd
    p = gen_presentation(seed, genus, 3)
    rng = random.Random(seed)
    q = enlarged(enlarged(p, rng), rng)
    assert gamma_seq(q, 30) == gamma_seq(p, 30)
    h = h_closed_form(p)
    calls = []
    gcd = exactnum.poly_gcd
    monkeypatch.setattr(exactnum, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    assert ratfn_equivalent(h_closed_form(q), h) is not None
    assert calls

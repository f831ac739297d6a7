"""Oracles from the paper's structure.

The unreduced denominator of h is ``det M = det(A - (t-1)V)``, which is
``det((2 - t)V - V^T)``: written in ``s = 2 - t`` it is the Alexander
polynomial ``Delta(s) = det(sV - V^T)`` of the distinguished component.
``Delta`` is palindromic of degree 2g (transpose ``sV - V^T``) and
``Delta(1) = det(V - V^T) = 1``.  A trivial Alexander polynomial
(``Delta = s^g`` here, up to units) leaves h no pole other than t = 2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from linkgamma.exactnum import Poly, series_expand_at_one
from linkgamma.gamma import (
    SeifertPresentation,
    gamma_seq,
    gen_presentation,
    h_closed_form,
    intersection_form,
)
from linkgamma.polylin import bordered_det, det, identity, mat_mul, transpose

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
def trivial_alexander_presentations(draw):
    # direct sum of [[0, 1], [0, 0]] blocks, conjugated by unimodular shears
    genus = draw(st.integers(1, 5))
    n = 2 * genus
    v = tuple(tuple(int(j == i + 1 and i % 2 == 0) for j in range(n)) for i in range(n))
    index = st.integers(0, n - 1)
    shears = st.lists(st.tuples(index, index, st.sampled_from((-1, 1))), max_size=2 * n)
    for r, c, e in draw(shears):
        if r != c:
            shear = [list(row) for row in identity(n)]
            shear[r][c] = e
            v = mat_mul(transpose(shear), mat_mul(v, shear))
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    lk23 = draw(st.integers(-3, 3))
    return SeifertPresentation(genus, v, draw(vector), draw(vector), lk23)


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

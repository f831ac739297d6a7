import random
from operator import mul

import pytest

from linkgamma import polylin
from linkgamma.exactnum import Poly
from linkgamma.polylin import (
    NotUnimodularError,
    adjugate,
    bordered_det,
    charpoly,
    det,
    identity,
    int_inverse,
    mat_mul,
    transpose,
)


def cofactor_det(m):
    # independent oracle: plain first-row cofactor expansion
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def rand_int_matrix(rng, n):
    return tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))


def rand_poly_matrix(rng, n, deg=1):
    return tuple(
        tuple(Poly(tuple(rng.randint(-4, 4) for _ in range(deg + 1))) for _ in range(n))
        for _ in range(n)
    )


def poly_mat_mul(a, b):
    # mat_mul sums from the int 0, so Poly matrices take a product of their own
    return tuple(
        tuple(sum(map(mul, row, col), Poly(())) for col in zip(*b)) for row in a
    )


def rand_unimodular(rng, n):
    m = identity(n)
    for _ in range(3 * n):
        shear = [list(row) for row in identity(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        shear[i][j] = rng.choice((-2, -1, 1, 2))
        m = mat_mul(m, tuple(tuple(r) for r in shear))
    return m


def rand_signed_unimodular(rng, n):
    # rows shuffled: determinant +1 or -1, and zero pivots that force row swaps
    rows = list(rand_unimodular(rng, n))
    rng.shuffle(rows)
    return tuple(rows)


# ------------------------------------------------------------------------ det


def test_det_symplectic_block():
    assert det(((0, 1), (-1, 0))) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_det_identity(n):
    assert det(identity(n)) == 1


def test_det_fixture_pencil():
    # A - xV for V = [[0,2],[1,0]]: hand expansion (1-2x)(1+x)
    m = (
        (Poly(()), Poly((1, -2))),
        (Poly((-1, -1)), Poly(())),
    )
    assert det(m) == Poly((1, -1, -2))


def test_det_requires_square():
    with pytest.raises(ValueError, match="square"):
        det(((1, 2, 3), (4, 5, 6)))


def test_det_rejects_other_entry_types():
    with pytest.raises(TypeError):
        det(((1.0, 0.0), (0.0, 1.0)))


def test_mixed_matrices_are_not_lifted():
    one = Poly((1,))
    # every minor of this matrix has entries of one type, the matrix not
    for f in (det, adjugate, charpoly, int_inverse):
        with pytest.raises(TypeError):
            f(((one, 0), (0, 1)))
    with pytest.raises(TypeError):
        bordered_det(((one,),), (1,), (one,), one)
    rows = [(one, Poly((0, 1))), (one, one)]
    assert polylin._classify(rows) == "poly"
    assert rows == [(one, Poly((0, 1))), (one, one)]
    # det and adjugate take an all-Poly matrix; the integer inverse does not
    with pytest.raises(TypeError, match="int_inverse is defined for integer matrices"):
        int_inverse(rows)
    assert polylin._classify([(1, 2), (3, 4)]) == "int"


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(5)
    for n in range(1, 6):
        for _ in range(30):
            m = rand_int_matrix(rng, n)
            assert det(m) == cofactor_det([list(r) for r in m])
    for n in range(1, 5):
        for _ in range(10):
            m = rand_poly_matrix(rng, n)
            assert det(m) == cofactor_det([list(r) for r in m])


def test_det_singular_integer_matrix():
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 0), (0, 0))) == 0


# --------------------------------------------------------------- bordered_det


def with_border(m, b, c, d):
    return tuple((*row, bi) for row, bi in zip(m, b)) + ((*c, d),)


def test_bordered_det_matches_two_determinants():
    rng = random.Random(41)
    for n in range(1, 6):
        for _ in range(20):
            m = rand_int_matrix(rng, n)
            if det(m) == 0:
                continue
            b = tuple(rng.randint(-9, 9) for _ in range(n))
            c = tuple(rng.randint(-9, 9) for _ in range(n))
            d = rng.randint(-9, 9)
            assert bordered_det(m, b, c, d) == (det(m), det(with_border(m, b, c, d)))
    for n in range(1, 5):
        for _ in range(5):
            m = rand_poly_matrix(rng, n)
            if not det(m):
                continue
            ints = [rng.randint(-4, 4) for _ in range(n)]
            b = tuple(Poly((e,)) for e in ints)
            c = tuple(Poly((e, -e)) for e in ints[::-1])
            d = Poly((3,))
            assert bordered_det(m, b, c, d) == (det(m), det(with_border(m, b, c, d)))
            with pytest.raises(TypeError):
                bordered_det(m, ints, c, d)
            with pytest.raises(TypeError):
                bordered_det(m, b, c, 3)


def test_bordered_det_rejects_singular_matrix():
    # only the border row has a pivot in column 0: M is singular, and taking
    # that pivot would make the last pivot something other than det(M)
    with pytest.raises(ValueError, match="nonsingular"):
        bordered_det(((0, 1), (0, 1)), (0, 1), (1, 0), 0)
    with pytest.raises(ValueError, match="vectors"):
        bordered_det(((1, 0), (0, 1)), (1,), (1, 0), 0)


# ------------------------------------------------------------------- adjugate


def test_adjugate_symplectic_block():
    assert adjugate(((0, 1), (-1, 0))) == ((0, -1), (1, 0))


def test_adjugate_fixture_pencil():
    m = (
        (Poly(()), Poly((1, -2))),
        (Poly((-1, -1)), Poly(())),
    )
    adj = adjugate(m)
    assert adj == (
        (Poly(()), Poly((-1, 2))),
        (Poly((1, 1)), Poly(())),
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_adjugate_identity(n):
    assert adjugate(identity(n)) == identity(n)


def test_adjugate_times_matrix_is_det_times_identity():
    rng = random.Random(17)
    for n in range(1, 9):
        for _ in range(3):
            m = rand_int_matrix(rng, n)
            d = det(m)
            expected = tuple(
                tuple(d if i == j else 0 for j in range(n)) for i in range(n)
            )
            assert mat_mul(m, adjugate(m)) == expected
    for n in range(1, 5):
        m = rand_poly_matrix(rng, n)
        d = det(m)
        zero = Poly(())
        expected = tuple(
            tuple(d if i == j else zero for j in range(n)) for i in range(n)
        )
        assert poly_mat_mul(m, adjugate(m)) == expected


# ---------------------------------------------------------------- int_inverse


def test_int_inverse_symplectic_block():
    assert int_inverse(((0, 1), (-1, 0))) == ((0, -1), (1, 0))


def test_int_inverse_identity():
    assert int_inverse(identity(4)) == identity(4)


def test_int_inverse_rejects_non_unimodular():
    with pytest.raises(NotUnimodularError) as info:
        int_inverse(((2, 0), (0, 1)))
    assert info.value.determinant == 2
    assert "not unimodular" in str(info.value)
    # a column without pivot (determinant 0) and a determinant of -3 after a swap
    cases = [
        (((1, 2), (2, 4)), 0),
        (((0, 0), (0, 0)), 0),
        (((0, 1, 0), (3, 0, 0), (0, 0, 1)), -3),
    ]
    for m, d in cases:
        with pytest.raises(NotUnimodularError) as info:
            int_inverse(m)
        assert info.value.determinant == d


def test_int_inverse_roundtrip_on_random_unimodular():
    rng = random.Random(29)
    for n in (*range(1, 7), *range(8, 13)):
        for _ in range(10):
            m = rand_unimodular(rng, n)
            inv = int_inverse(m)
            assert mat_mul(inv, m) == identity(n)
            assert mat_mul(m, inv) == identity(n)


def test_int_inverse_matches_adjugate_reference():
    # A^-1 = adj(A) / det(A), and 1 / det(A) = det(A) for det(A) = +1 or -1
    rng = random.Random(31)
    for n in range(1, 7):
        for _ in range(10):
            m = rand_signed_unimodular(rng, n)
            d = det(m)
            assert d in (1, -1)
            assert int_inverse(m) == tuple(tuple(d * e for e in row) for row in adjugate(m))


# ------------------------------------------------------------------- charpoly


def char_matrix_det(m):
    # independent route: det(xI - M) by the Poly elimination, highest power first
    n = len(m)
    xi_m = [[Poly((-m[i][j], int(i == j))) for j in range(n)] for i in range(n)]
    return tuple(reversed(det(xi_m).coeffs))


def zero_diagonal(rng, n):
    return tuple(tuple(0 if i == j else rng.randint(-9, 9) for j in range(n)) for i in range(n))


def non_unimodular(rng, n):
    while True:
        m = rand_int_matrix(rng, n)
        if abs(det(m)) > 1:
            return m


def singular(rng, n):
    # last row is a combination of the others (a zero row when n = 1)
    rows = [list(r) for r in rand_int_matrix(rng, n)][: n - 1]
    coef = [rng.randint(-2, 2) for _ in rows]
    rows.append([sum(c * r[j] for c, r in zip(coef, rows)) for j in range(n)])
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", ["non-unimodular", "zero-diagonal", "singular", "unimodular"])
def test_charpoly_matches_determinant_of_char_matrix(n, kind):
    rng = random.Random(1000 * n + len(kind))
    make = {
        "non-unimodular": non_unimodular,
        "zero-diagonal": zero_diagonal,
        "singular": singular,
        "unimodular": rand_signed_unimodular,
    }[kind]
    for _ in range(6):
        m = make(rng, n)
        c = charpoly(m)
        assert c == char_matrix_det(m)
        assert c[0] == 1 and c[1] == -sum(m[i][i] for i in range(n))
        assert c[-1] == (-1) ** n * det(m)
        if kind == "singular":
            assert c[-1] == 0
        if kind == "non-unimodular":
            assert abs(c[-1]) > 1


def test_charpoly_small_cases():
    assert charpoly(((3,),)) == (1, -3)
    assert charpoly(((0, 1), (-1, 0))) == (1, 0, 1)
    assert charpoly(((0, 0), (0, 0))) == (1, 0, 0)
    # nilpotent: x^3
    assert charpoly(((0, 1, 0), (0, 0, 1), (0, 0, 0))) == (1, 0, 0, 0)


def test_charpoly_rejects_non_integer_and_non_square():
    with pytest.raises(ValueError):
        charpoly(((1, 2),))
    with pytest.raises(TypeError):
        charpoly(((Poly((1, 1)),),))


def test_transpose_involution():
    rng = random.Random(37)
    m = rand_int_matrix(rng, 5)
    assert transpose(transpose(m)) == m

"""Exact linear algebra over the integers and over univariate polynomials.

Matrices are tuples of row tuples; vectors are flat tuples.  Entries are
either arbitrary-precision ``int`` or :class:`~linkgamma.exactnum.Poly`
(a matrix mixing the two is lifted to polynomial entries).  Determinants
use fraction-free Bareiss elimination with exact division, so integer
matrices yield integers and polynomial matrices yield polynomials, with
no rational intermediates.  Polynomial matrices are never inverted
directly: a pairing ``c^T adj(M) b`` is read off one bordered determinant,
``det([[M, b], [-c^T, d]]) = d det(M) + c^T adj(M) b``, which stays inside
polynomial arithmetic.
"""

from __future__ import annotations

from operator import mul

from .exactnum import Poly, poly_exact_div

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
PolyMatrix = tuple[tuple[Poly, ...], ...]


class NotUnimodularError(ValueError):
    """Raised when an integer inverse is requested of a matrix whose
    determinant is not a unit; carries that determinant."""

    def __init__(self, determinant):
        super().__init__(f"matrix not unimodular: determinant is {determinant}")
        self.determinant = determinant


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def vec_dot(u, v):
    return sum(map(mul, u, v))


def _square_rows(m, what):
    rows = [tuple(row) for row in m]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError(f"{what} requires a square matrix")
    return rows


def _classify(rows):
    # -> ("int", rows) or ("poly", rows with every entry lifted to Poly)
    has_poly = any(isinstance(e, Poly) for row in rows for e in row)
    if has_poly:
        lifted = [
            tuple(e if isinstance(e, Poly) else Poly((e,)) for e in row)
            for row in rows
        ]
        return "poly", lifted
    if all(isinstance(e, int) for row in rows for e in row):
        return "int", rows
    raise TypeError("matrix entries must be integers or Poly")


def _int_exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in fraction-free elimination")
    return q


def _bareiss(rows, zero, exact_div):
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = None  # previous pivot; first step divides by 1
    for k in range(n - 1):
        if m[k][k] == zero:
            for i in range(k + 1, n):
                if m[i][k] != zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = elt if prev is None else exact_div(elt, prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def det(m):
    """Exact determinant by Bareiss fraction-free elimination."""
    rows = _square_rows(m, "determinant")
    kind, rows = _classify(rows)
    if kind == "int":
        return _bareiss(rows, 0, _int_exact_div)
    return _bareiss(rows, Poly(()), poly_exact_div)


def _minor(rows, i, j):
    return [row[:j] + row[j + 1 :] for r, row in enumerate(rows) if r != i]


def adjugate(m):
    """Adjugate matrix: ``M * adjugate(M) == det(M) * I`` exactly."""
    rows = _square_rows(m, "adjugate")
    kind, rows = _classify(rows)
    n = len(rows)
    if n == 1:
        one = 1 if kind == "int" else Poly((1,))
        return ((one,),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            d = det(_minor(rows, j, i))
            row.append(-d if (i + j) % 2 else d)
        out.append(tuple(row))
    return tuple(out)


def int_inverse(m) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    rows = _square_rows(m, "inverse")
    kind, rows = _classify(rows)
    if kind != "int":
        raise TypeError("int_inverse is defined for integer matrices")
    d = det(rows)
    if d not in (1, -1):
        raise NotUnimodularError(d)
    adj = adjugate(rows)
    if d == 1:
        return adj
    return tuple(tuple(-e for e in row) for row in adj)

"""Exact linear algebra over the integers and over univariate polynomials.

Matrices are tuples of row tuples; vectors are flat tuples.  A matrix's
entries are all arbitrary-precision ``int`` or all
:class:`~linkgamma.exactnum.Poly`, never mixed; :func:`mat_mul`,
:func:`mat_vec` and :func:`vec_dot` take ``int`` entries.  Every
elimination is one fraction-free Bareiss kernel, :func:`_bareiss`, with
exact division, so integer matrices yield integers and polynomial
matrices yield polynomials, with no rational intermediates.  After k
steps, by Sylvester's identity, each entry outside the first k rows and
columns is the determinant of the leading k x k block bordered by that
entry's row and column (the Schur complement, scaled by the k-th pivot).
So one elimination yields every leading minor as a pivot; a pairing
``c^T adj(M) b`` is read off one bordered determinant,
``det([[M, b], [-c^T, d]]) = d det(M) + c^T adj(M) b``, which
:func:`bordered_det` returns together with ``det(M)``; and the integer
inverse is the Schur complement block of ``[[A, I], [I, 0]]``.  The
characteristic polynomial, :func:`charpoly`, needs no division at all.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul

from .exactnum import Poly, _product

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]

# Tuples here are built from lists: a tuple built from a generator or an
# iterator leaves a block in CPython's tuple free lists on every call.


class NotUnimodularError(ValueError):
    """Raised when an integer inverse is requested of a matrix whose
    determinant is not a unit; carries that determinant."""

    def __init__(self, determinant):
        super().__init__(f"matrix not unimodular: determinant is {determinant}")
        self.determinant = determinant


def identity(n: int) -> IntMatrix:
    return tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)])


def transpose(m):
    return tuple(list(zip(*m)))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple([mat_vec(bt, row) for row in a])


def mat_vec(m, v):
    return tuple([sum(map(mul, row, v)) for row in m])


def vec_dot(u, v):
    return sum(map(mul, u, v))


def _square_rows(m, what):
    rows = [tuple(row) for row in m]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError(f"{what} requires a square matrix")
    return rows


def _classify(rows):
    # "int" or "poly": the one type of every entry
    for kind, cls in (("int", int), ("poly", Poly)):
        if all(isinstance(e, cls) for row in rows for e in row):
            return kind
    raise TypeError("matrix entries must be all integers or all Poly")


def _bareiss(rows, pivot_rows):
    """Bareiss fraction-free elimination of a square matrix, taking pivots
    only from its first ``pivot_rows`` rows and stopping after
    ``min(pivot_rows, n - 1)`` steps.

    Returns ``(sign, m)``: the sign of the row swaps (0 when some column
    has no pivot among those rows, which are then linearly dependent) and
    the eliminated rows.  After the elimination, for the row-swapped
    matrix ``S`` and ``k`` the number of steps, ``m[k][k]`` is the
    determinant of ``S``'s leading (k+1) x (k+1) block and, for
    ``i, j >= k``, ``m[i][j]`` is the determinant of its leading k x k
    block bordered by row i and column j (Sylvester's identity).
    """
    _classify(rows)
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = None  # previous pivot; first step divides by 1
    for k in range(min(pivot_rows, n - 1)):
        if not m[k][k]:
            for i in range(k + 1, pivot_rows):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0, m
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            new = [x * pivot - f * y for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])]
            if prev is not None:
                # a list: star-unpacking an iterator grows CPython's tuple free lists
                new, rems = zip(*list(map(divmod, new, repeat(prev))))
                if any(rems):
                    raise ArithmeticError("non-exact division in fraction-free elimination")
            row[k + 1 :] = new
        prev = pivot
    return sign, m


def det(m):
    """Exact determinant by Bareiss fraction-free elimination."""
    rows = _square_rows(m, "determinant")
    sign, e = _bareiss(rows, len(rows))
    return e[-1][-1] * sign


def bordered_det(m, b, c, d):
    """``(det(M), det([[M, b], [c^T, d]]))`` from one Bareiss elimination of
    the bordered matrix, for a square matrix ``M`` with ``det(M) != 0``.

    Pivots are taken only from the rows of ``M``, so the row swaps stay
    inside ``M``'s block and ``det(M)`` is the last leading pivot times the
    swap sign; no second elimination is needed.  Raises ``ValueError``
    when ``M`` is singular.
    """
    rows = _square_rows(m, "bordered determinant")
    n = len(rows)
    if len(b) != n or len(c) != n:
        raise ValueError("bordered determinant requires vectors of the matrix size")
    bordered = [(*row, bi) for row, bi in zip(rows, b)]
    bordered.append((*c, d))
    sign, e = _bareiss(bordered, n)
    if not sign:
        raise ValueError("bordered determinant requires a nonsingular matrix")
    return e[n - 1][n - 1] * sign, e[n][n] * sign


def charpoly(m) -> IntVector:
    """Coefficients ``(c_0, ..., c_n)`` of ``det(xI - M) = sum_i c_i x^(n-i)``
    for a square integer matrix, so ``c_0 = 1``, ``c_1 = -trace(M)`` and
    ``c_n = (-1)^n det(M)``; Berkowitz's division-free algorithm (Berkowitz
    1984).

    The leading principal blocks are bordered one row and column at a time.
    For ``M' = [[M, C], [R, a]]`` with ``p = det(xI - M)``,
    ``det(xI - M') = (x - a) p - R adj(xI - M) C``, and expanding the
    adjugate in powers of x turns that into one lower-triangular Toeplitz
    product: ``p'`` is the convolution of ``p`` with
    ``(1, -a, -R C, -R M C, ..., -R M^(k-1) C)``, k the size of M.  Only
    sums and products of integers occur, about n^4/4 products in all.
    """
    rows = _square_rows(m, "characteristic polynomial")
    if _classify(rows) != "int":
        raise TypeError("charpoly is defined for integer matrices")
    c = [1]
    for k, row in enumerate(rows):
        lead = [r[:k] for r in rows[:k]]
        left = row[:k]
        v = [r[k] for r in rows[:k]]
        toeplitz = [1, -row[k]]
        for _ in range(k):
            toeplitz.append(-vec_dot(left, v))
            v = mat_vec(lead, v)
        c = _product(c, toeplitz, k + 1)
    return tuple(c)


def _minor(rows, i, j):
    return [row[:j] + row[j + 1 :] for r, row in enumerate(rows) if r != i]


def adjugate(m):
    """Adjugate matrix: ``M * adjugate(M) == det(M) * I`` exactly."""
    rows = _square_rows(m, "adjugate")
    kind = _classify(rows)
    n = len(rows)
    if n == 1:
        return ((1 if kind == "int" else Poly((1,)),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            d = det(_minor(rows, j, i))
            row.append(-d if (i + j) % 2 else d)
        out.append(tuple(row))
    return tuple(out)


def int_inverse(m) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix, read off one Bareiss
    elimination (Bareiss 1968) of ``[[A, I], [I, 0]]``.

    The pivots come only from A's rows, and the elimination stops after
    n steps.  By Sylvester's identity entry (n+i, n+j) is then
    ``det([[P A, P e_j], [e_i^T, 0]]) = -d (A^-1)_ij``, with ``P`` the row
    swaps and ``d = det(P A)`` the last pivot: the lower-right block is the
    Schur complement ``-A^-1`` scaled by ``d``.  A determinant other than
    +1 or -1 raises :class:`NotUnimodularError` carrying it (0 when a
    column has no pivot).
    """
    rows = _square_rows(m, "inverse")
    if _classify(rows) != "int":
        raise TypeError("int_inverse is defined for integer matrices")
    n = len(rows)
    eye = identity(n)
    top = [r + u for r, u in zip(rows, eye)]
    sign, e = _bareiss(top + [u + (0,) * n for u in eye], n)
    if not sign:
        raise NotUnimodularError(0)
    d = e[n - 1][n - 1]
    if d not in (1, -1):
        raise NotUnimodularError(sign * d)
    return tuple([tuple([-d * x for x in row[n:]]) for row in e[n:]])

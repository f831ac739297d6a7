"""Exact linear algebra over the integers and over univariate polynomials.

Matrices are tuples of row tuples; vectors are flat tuples.  Entries are
either arbitrary-precision ``int`` or :class:`~linkgamma.exactnum.Poly`
(a matrix mixing the two is lifted to polynomial entries).  Determinants
use fraction-free Bareiss elimination with exact division, so integer
matrices yield integers and polynomial matrices yield polynomials, with
no rational intermediates.  After the elimination the k-th pivot is the
determinant of the leading k x k block, so one elimination yields every
leading minor.  Polynomial matrices are never inverted directly: a
pairing ``c^T adj(M) b`` is read off one bordered determinant,
``det([[M, b], [-c^T, d]]) = d det(M) + c^T adj(M) b``, and
:func:`bordered_det` returns it together with ``det(M)``, the last
leading pivot of the same elimination.  The integer inverse is the
fraction-free Gauss-Jordan elimination of ``[A | I]``.
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


def _bareiss(rows, pivot_rows):
    """Bareiss fraction-free elimination of a square matrix, taking pivots
    only from its first ``pivot_rows`` rows.

    Returns ``(zero, sign, m)``: the zero of the entry ring, the sign of
    the row swaps (0 when some column has no pivot among those rows, which
    are then linearly dependent) and the eliminated rows, in which
    ``m[k][k]`` is the determinant of the leading (k+1) x (k+1) block of
    the row-swapped matrix.
    """
    kind, rows = _classify(rows)
    if kind == "int":
        zero, exact_div = 0, _int_exact_div
    else:
        zero, exact_div = Poly(()), poly_exact_div
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = None  # previous pivot; first step divides by 1
    for k in range(n - 1):
        if m[k][k] == zero:
            for i in range(k + 1, pivot_rows):
                if m[i][k] != zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return zero, 0, m
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[i][j] * pivot - m[i][k] * m[k][j]
                m[i][j] = elt if prev is None else exact_div(elt, prev)
        prev = pivot
    return zero, sign, m


def det(m):
    """Exact determinant by Bareiss fraction-free elimination."""
    rows = _square_rows(m, "determinant")
    zero, sign, e = _bareiss(rows, len(rows))
    d = e[-1][-1]
    return zero if not sign else (d if sign > 0 else -d)


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
    _, sign, e = _bareiss(bordered, n)
    if not sign:
        raise ValueError("bordered determinant requires a nonsingular matrix")
    lead, full = e[n - 1][n - 1], e[n][n]
    return (lead, full) if sign > 0 else (-lead, -full)


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
    """Exact inverse of a unimodular integer matrix, by fraction-free
    Gauss-Jordan elimination of ``[A | I]`` (Bareiss 1968).

    Each step clears the pivot column in every other row and divides by
    the previous pivot exactly, so all entries stay integers.  The
    elimination ends at ``[d I | d A^-1]``, with ``d`` the determinant of
    the row-swapped matrix; a determinant other than +1 or -1 raises
    :class:`NotUnimodularError` carrying it.
    """
    rows = _square_rows(m, "inverse")
    kind, rows = _classify(rows)
    if kind != "int":
        raise TypeError("int_inverse is defined for integer matrices")
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if not aug[k][k]:
            for i in range(k + 1, n):
                if aug[i][k]:
                    aug[k], aug[i] = aug[i], aug[k]
                    sign = -sign
                    break
            else:
                raise NotUnimodularError(0)
        pivot_row = aug[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(pivot * x - f * y) // prev for x, y in zip(aug[i], pivot_row)]
        prev = pivot
    if prev not in (1, -1):
        raise NotUnimodularError(sign * prev)
    return tuple(tuple(prev * e for e in row[n:]) for row in aug)

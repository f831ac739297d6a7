"""Exact reference values the benchmark checks the program against.

Nothing here imports linkgamma.  The gamma recursion uses its own
Gauss-Jordan inverse over Fractions and one matrix-vector product per step
by ``B = A^-1 V`` (the program does two products per step), and the shift
uses the closed binomial formula rather than the program's iterated
operator, so an agreement between the two is evidence, not an echo.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def int_inverse(m):
    """Inverse of a unimodular integer matrix, by Gauss-Jordan over Q."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [x / pivot for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def det(m) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def skew(v):
    """``A = V - V^T``."""
    n = len(v)
    return [[v[i][j] - v[j][i] for j in range(n)] for i in range(n)]


def _mat_vec(m, x):
    return [sum(map(operator.mul, row, x)) for row in m]


def gamma_sequence(v, v2, v3, lk23, order):
    """``gamma_0..gamma_order`` with ``gamma_k = (B^(k-1) A^-1 v2) . v3``."""
    a_inv = int_inverse(skew(v))
    b = [[sum(a_inv[i][k] * v[k][j] for k in range(len(v))) for j in range(len(v))]
         for i in range(len(v))]
    out = [lk23]
    u = _mat_vec(a_inv, v2)
    for _ in range(order):
        out.append(sum(map(operator.mul, u, v3)))
        u = _mat_vec(b, u)
    return out


def binomials(n: int, count: int):
    """Generalized binomials ``C(n, 0..count-1)``; for n >= 0 the list stops
    at ``C(n, n)`` because every later term is zero."""
    c = [1]
    for j in range(count - 1):
        if n >= 0 and j >= n:
            break
        c.append(c[-1] * (n - j) // (j + 1))
    return c


def shift(s, n: int):
    """Entry k of ``T^n s`` is ``sum_j C(n, j) s[k - j]``: multiplying the
    generating function by ``(1 + x)^n``."""
    c = binomials(n, len(s))
    out = []
    for k in range(len(s)):
        m = min(k + 1, len(c))
        out.append(sum(map(operator.mul, c[:m], reversed(s[k - m + 1:k + 1]))))
    return out


def canonical_exponent(s):
    """Exponent reaching the canonical representative: the shift that puts
    the entry after the leading one into ``[0, |lead|)``."""
    k = next(i for i, e in enumerate(s) if e)
    lead, nxt = s[k], s[k + 1]
    return (nxt % abs(lead) - nxt) // lead


def mixed(s, p: int, l: int):
    """Linking number of the p-fold and l-fold derived components:
    ``(-1)^l sum_{j=1..l} C(l-1, j-1) s[p+j]``.  ``mixed(s, 0, k)`` is entry
    k of the swapped sequence and ``mixed(s, k, k)`` is beta_k."""
    acc = sum(map(operator.mul, binomials(l - 1, l), s[p + 1:p + l + 1]))
    return -acc if l % 2 else acc


def milnor_lines(s):
    """``(index, modulus, residue)`` of each entry, the residue of entry k
    modulo the gcd of the entries before it; modulus 0 means exact."""
    out, modulus = [], 0
    for k, value in enumerate(s):
        out.append((k, modulus, value % modulus if modulus else value))
        modulus = math.gcd(modulus, value)
    return out

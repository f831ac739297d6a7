"""Exact integer arithmetic: polynomials over Z, truncated power series,
and reduced rational functions.

Every value here is immutable and every operation is exact; there is no
floating point on any code path, and every coefficient is a plain ``int``.
Nothing needs more: a presentation has det A = 1, so h's denominator is
+-1 at t = 1, and by Gauss's lemma h and its expansion at t = 1 have
integer coefficients.  ``ratfn_eval`` alone returns a ``Fraction``, a
value rather than a coefficient.  ``Poly``'s ``+``, ``-``, ``divmod`` and
``==`` take a ``Poly``, an ``int`` only scales one, and ``RatFn`` takes two.

``RatFn`` values are kept in a canonical form -- numerator and denominator
coprime, the denominator's leading coefficient positive, and the
coefficients of both together of gcd 1 -- so that equality is a structural
comparison.  A gcd of degree 0 modulo p = 2^61 - 1 certifies coprimality
when p does not divide the denominator's leading coefficient (Collins 1967;
Brown 1971); only a pair that fails it is reduced by ``poly_gcd``, the
primitive pseudo-remainder sequence over Z (Collins 1967), whose every
division is exact.  Laurent polynomials need no separate type: a monomial
denominator ``t^m`` covers negative exponents.

The arithmetic of a form ``(1+x)^e P/C``, which the gamma sequence, h's
expansion, the shift and the swap all expand, is here too: the product by
``(1+x)^e`` (``_times_binomial``), the series quotient and their memo
(``_expansion``).
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, count, repeat
from operator import add, mul, ne, neg


def _coeff(c):
    """An exact coefficient: an ``int``, but not a ``bool``, although
    ``bool`` subclasses ``int``."""
    if type(c) is int or isinstance(c, int) and not isinstance(c, bool):
        return c
    raise TypeError(f"int coefficient required, got {type(c).__name__}")


def _require_int(value, what: str, least: int | None = None) -> None:
    """The check of every order, index and count argument: ``ValueError``
    unless ``value`` is an ``int`` but not a ``bool``, and, given
    ``least``, at least ``least`` (0: nonnegative, 1: positive)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be {'positive' if least else 'nonnegative'}")


class Poly:
    """Dense univariate polynomial with integer coefficients.

    ``coeffs[k]`` is the degree-k coefficient; trailing zeros are trimmed,
    so the zero polynomial has an empty coefficient tuple and is falsy.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """``(q, r)`` with ``self == q * other + r``, by long division over
        Z.  It stops at the first quotient coefficient that ``other``'s
        leading coefficient does not divide, so ``r`` is zero exactly when
        ``other`` divides ``self`` in Z[t]."""
        if not isinstance(other, Poly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        b = other.coeffs
        db = len(b) - 1
        lead = b[-1]
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q, r = divmod(c, lead)
                if r:
                    break
                quot[i - db] = q
                rem[i - db : i + 1] = [x - q * y for x, y in zip(rem[i - db : i + 1], b)]
        return Poly(quot), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Evaluate at an exact point by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _primitive(p: Poly) -> Poly:
    content = math.gcd(*p.coeffs)
    return p if content < 2 else Poly([c // content for c in p.coeffs])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The primitive gcd in Z[t], with a positive leading coefficient (zero
    when both are zero), by the primitive pseudo-remainder sequence
    (Collins 1967): the remainder after ``b`` is
    ``(lead(b)^(deg a - deg b + 1) * a) % b`` made primitive, a division
    that is exact."""
    a, b = _primitive(a), _primitive(b)
    if a.degree() < b.degree():
        a, b = b, a
    while b:
        a, b = b, _primitive(a * b.coeffs[-1] ** (a.degree() - b.degree() + 1) % b)
    return -a if a and a.coeffs[-1] < 0 else a


def poly_exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("polynomial division left a remainder")
    return q


# The modulus of the coprimality certificate, the Mersenne prime 2^61 - 1.
_P = (1 << 61) - 1


def _coprime_mod_p(num, den) -> bool:
    """Whether nonzero int sequences ``num`` and ``den`` are certified
    coprime: p does not divide den's leading coefficient and
    gcd(num, den) mod p is constant.  A common factor of positive degree,
    taken primitive in Z[t], has a leading coefficient dividing den's, so
    it would keep its degree mod p.  False proves nothing."""
    a = [c % _P for c in den]
    if not a[-1]:
        return False
    b = [c % _P for c in num]
    while b and not b[-1]:
        b.pop()
    while b:
        # a <- a mod b in place, cancelling one leading term per step
        inv = pow(b[-1], -1, _P)
        nb = len(b) - 1
        while len(a) > nb:
            q = a.pop() * inv % _P
            off = len(a) - nb
            a[off:] = [(x - q * y) % _P for x, y in zip(a[off:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _berlekamp_massey(entries):
    """Berlekamp-Massey over Z/p (Massey 1969), p = 2^61 - 1.  After each
    entry read it yields ``(length, d, c)``: the length of the shortest
    linear recurrence the entries read so far satisfy modulo p, the
    discrepancy of the last entry against the recurrence before it (0 when
    it already satisfied that one), and the connection polynomial ``c``,
    with ``c[0] == 1``, whose product with the entries read vanishes mod p
    at every index from ``length`` on.  A yielded ``c`` is never changed
    later; trailing zeros may pad it."""
    c, b = [1], [1]
    length, gap, b_inv = 0, 1, 1
    seen = []
    for k, e in enumerate(entries):
        seen.append(e % _P)
        d = sum(map(mul, c, reversed(seen))) % _P
        if d:
            q = d * b_inv % _P
            old = c
            c = c + [0] * (gap + len(b) - len(c))
            c[gap : gap + len(b)] = [(x - q * y) % _P for x, y in zip(c[gap:], b)]
            if 2 * length <= k:
                length, b, b_inv, gap = k + 1 - length, old, pow(d, -1, _P), 0
        gap += 1
        yield length, d, c


def poly_str(p: Poly, var: str = "t") -> str:
    """Human-readable form with ascending powers, e.g. ``-3 + 2t``."""
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            vp = var if k == 1 else f"{var}^{k}"
            body = vp if mag == 1 else f"{mag}{vp}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


class Series:
    """Truncated power series: coefficients for indices ``0..order`` are
    exact, nothing is claimed beyond the order.  Operations never silently
    extend a truncation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # from a list: tuple(generator) grows CPython's tuple free lists per call
        cs = tuple([_coeff(c) for c in coeffs])
        if not cs:
            raise ValueError("a series carries at least its constant coefficient")
        self.coeffs = cs

    @classmethod
    def _built(cls, coeffs: tuple) -> "Series":
        """A series of ints the library computed, unchecked: ``coeffs`` is a
        nonempty tuple."""
        series = object.__new__(cls)
        series.coeffs = coeffs
        return series

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, Series):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("Series", self.coeffs))

    def __repr__(self):
        return f"Series({self.coeffs!r})"


class RatFn:
    """Reduced rational function ``num/den`` in the variable t.

    The constructor establishes the canonical form: num and den coprime,
    den with a positive leading coefficient, and the coefficients of both
    together of gcd 1, so structural equality is equality in Q(t).  A gcd
    of degree 0 mod p = 2^61 - 1, with p not dividing den's leading
    coefficient, certifies the pair coprime, and any other pair is first
    divided by its primitive ``poly_gcd``.  Last, both are divided by the
    gcd of all their coefficients, signed like den's leading coefficient.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly((1,))):
        if not (isinstance(num, Poly) and isinstance(den, Poly)):
            raise TypeError("RatFn takes a Poly numerator and denominator")
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not num:
            self.num = Poly(())
            self.den = Poly((1,))
            return
        nums, dens = num.coeffs, den.coeffs
        if not _coprime_mod_p(nums, dens):
            g = poly_gcd(num, den)
            if g.degree() > 0:
                nums, dens = poly_exact_div(num, g).coeffs, poly_exact_div(den, g).coeffs
        content = math.gcd(*nums, *dens)
        if dens[-1] < 0:
            content = -content
        if content != 1:
            nums = [c // content for c in nums]
            dens = [c // content for c in dens]
        self.num = Poly(nums)
        self.den = Poly(dens)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RatFn):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash(("RatFn", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


def ratfn_reduce(num: Poly, den: Poly) -> RatFn:
    """Canonical reduced form of ``num/den``; scaling both arguments by a
    common nonzero polynomial does not change the result."""
    return RatFn(num, den)


def ratfn_eval(f: RatFn, x):
    """Exact value ``f(x)``, a ``Fraction``; raises at a pole."""
    from fractions import Fraction  # a value, not a coefficient: no import at start-up

    d = f.den(x)
    if d == 0:
        raise ZeroDivisionError("pole at evaluation point")
    return Fraction(f.num(x)) / Fraction(d)


def _taylor_shift_one(p: Poly) -> list:
    # coefficients of p(1 + x) in x, by Horner over the base 1 + x
    acc = []
    for c in reversed(p.coeffs):
        acc.append(0)
        acc[1:] = map(add, acc[1:], acc)  # acc * (1 + x), the map consumed first
        acc[0] += c
    return acc


def _unit_constant(num, den) -> tuple:
    """``(num, den)`` with ``den[0] == 1``: both negated when
    ``den[0] == -1``; any other ``den[0]`` raises ``ValueError``."""
    if den[0] == -1:
        return tuple(map(neg, num)), tuple(map(neg, den))
    if den[0] != 1:
        raise ValueError(f"series quotient needs a constant term of 1 or -1, got {den[0]}")
    return num, den


def _series_quotient(num, den, order: int) -> list:
    """Coefficients 0..order of the power series ``num/den``, for int
    sequences with ``den[0] == 1``, where each coefficient is
    ``c_k = num_k - sum_j den_j c_(k-j)``, or ``den[0] == -1``, where both
    inputs are negated first.  Any other ``den[0]`` raises ``ValueError``."""
    num, den = _unit_constant(num, den)
    tail = [-d for d in den[1:]]
    out = []
    for k in range(order + 1):
        out.append(sum(map(mul, tail, reversed(out)), num[k] if k < len(num) else 0))
    return out


def _binomials(n: int, size: int) -> list[int]:
    """``C(n, 0), ..., C(n, size - 1)``, generalized binomials for n < 0,
    built by ``C(n, j) = C(n, j-1) (n-j+1) / j``, each division exact.  A
    row that ends within size, 0 <= n < size, is built to its middle and
    mirrored."""
    top = n // 2 if 0 <= n < size else size - 1
    row = [1]
    for j in range(1, top + 1):
        row.append(row[-1] * (n - j + 1) // j)
    if top < size - 1:
        row += row[: n - top][::-1] + [0] * (size - n - 1)
    return row


def _product(a, b, order: int) -> list:
    """Coefficients 0..order of the product of coefficient lists a and b,
    one pass over b per term of a, so a should be the shorter."""
    out = [0] * (order + 1)
    for j, aj in enumerate(a[: order + 1]):
        if aj:
            m = min(len(b), order + 1 - j)
            out[j : j + m] = map(add, out[j : j + m], map(mul, repeat(aj), b[:m]))
    return out


# _times_binomial takes |e| steps of one addition per entry in place of a
# product with the binomial row while they number at most this many per
# product.  Timed on Python 3.11 on a 2-core Intel Xeon host, inverse
# steps on a short numerator took as long as the product near |e| = 4|p|.
_STEPS_PER_PRODUCT = 4


def _times_binomial(p, e: int, order: int) -> list:
    """Coefficients 0..order of ``(1+x)^e p``, by |e| steps on p padded to
    the order, |e| (order + 1) additions, or by the product with the
    binomial row, |p| products per term of the row, whichever counts less
    with a product weighed as _STEPS_PER_PRODUCT steps.  A forward step
    adds the list to itself offset by one; an inverse step is a prefix sum
    of the sign-alternated list ``(-1)^i c[i]``."""
    size = order + 1 if e < 0 else min(order, e) + 1
    if abs(e) * (order + 1) > _STEPS_PER_PRODUCT * len(p) * size:
        return _product(p, _binomials(e, size), order)
    c = [*p[: order + 1], *[0] * (order + 1 - len(p))]
    if e < 0:
        c[1::2] = map(neg, c[1::2])
        for _ in range(-e):
            c = list(accumulate(c))
        c[1::2] = map(neg, c[1::2])
    for _ in range(e):
        # slice assignment consumes the map in full before it writes
        c[1:] = map(add, c[1:], c)
    return c


def _first_difference(a, b, start: int = 0):
    """The first index, counted from ``start``, where lists a and b differ
    within the shorter, or None."""
    return next(compress(count(start), map(ne, a, b)), None)


def _expand(num, den, e: int, order: int) -> list:
    """Coefficients 0..order of the power series ``(1+x)^e num/den``, for
    int sequences with ``den[0]`` 1 or -1, as :func:`_series_quotient`."""
    return _series_quotient(_times_binomial(num, e, order), den, order)


_EXPANSIONS_KEPT = 2
_expansions = ()


def _expansion(num, den, e: int, order: int, compute=None) -> tuple:
    """Entries 0..order of ``(1+x)^e num/den``, the one memo of expansions.

    The key is ``(order, e, P, C)``: num and den as tuples trimmed of
    trailing zeros, both negated when ``den[0] == -1``
    (:func:`_unit_constant`), so equal keys name equal expansions.  A key
    kept returns its entries; otherwise they are computed, by
    :func:`_expand` or by ``compute()`` when given (a route of the
    caller's that gives the same entries), and kept as a tuple in place of
    the oldest of the two kept, newest first.  An expansion is asked for
    again, if at all, right after it is made: ``gamma_seq``'s by h's
    expansion, one canonical form's by the other's, so two serve both.

    The memo is module state, not a per-form cache, because h's expansion
    reaches ``gamma_seq``'s only through it: h comes from the determinants,
    not from the sequence's form, until h is built from the characteristic
    polynomial (ROADMAP item 2).  The tuple ``_expansions`` is replaced
    whole, never changed, so a concurrent call reads the old one or the
    new one, and at worst computes an expansion again."""
    global _expansions
    key = (order, e, *_unit_constant(Poly(num).coeffs, Poly(den).coeffs))
    for kept, entries in _expansions:
        if kept == key:
            return entries
    entries = tuple(compute() if compute else _expand(num, den, e, order))
    _expansions = ((key, entries), *_expansions[: _EXPANSIONS_KEPT - 1])
    return entries


def series_expand_at_one(f: RatFn, order: int) -> Series:
    """Exact Taylor coefficients of ``f`` at t = 1, indices ``0..order``.

    Substitutes t = 1 + x and divides the shifted numerator by the shifted
    denominator as truncated power series.  Every h has den(1) = 1 or -1;
    any other nonzero den(1) raises ``ValueError``, and a pole (den(1) = 0)
    ``ZeroDivisionError``.  The expansion goes through :func:`_expansion`,
    where h's shifted pair is the key of the form that
    :func:`~linkgamma.gamma.gamma_seq` expands past its switch, unless h
    reduces.
    """
    _require_int(order, "expansion order", 0)
    q = _taylor_shift_one(f.den)
    if not q[0]:
        raise ZeroDivisionError("expansion center is a pole")
    return Series._built(_expansion(_taylor_shift_one(f.num), q, 0, order))


def series_compose(outer: Series, inner: Series, order: int) -> Series:
    """Truncation to ``order`` of ``outer(inner(x))``.

    Both inputs must already be exact to at least ``order``, and the inner
    series must have zero constant term (otherwise the truncated
    composition is not determined by finitely many coefficients).
    """
    _require_int(order, "composition order", 0)
    if outer.order < order or inner.order < order:
        raise ValueError("series order insufficient for requested truncation")
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires zero constant term")
    inner_p = Poly(inner.coeffs[: order + 1])
    acc = Poly(())
    for c in reversed(outer.coeffs[: order + 1]):
        acc = Poly((acc * inner_p + Poly((c,))).coeffs[: order + 1])
    return Series(acc.coeffs + (0,) * (order + 1 - len(acc.coeffs)))


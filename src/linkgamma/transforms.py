"""Sequence-level operators on truncated gamma sequences.

The shift action, the component-swap transform, mixed-derivative linking
numbers, and the recovery of the self-linking beta invariants are all
binomial sums in the sequence entries, so each is exact, additive in the
sequence, and needs only entries up to the index it produces.  Operations
fail loudly when the requested index exceeds the truncation order rather
than returning a silently shortened sequence.

The shift multiplies the generating function by ``1 + x`` and the swap is
t -> 1/t on h, so both act on a form ``(1+x)^f P/C`` of the sequence: a
gamma sequence, and every shifted copy of one, expands a short rational
function (h at t = 1 + x).  :func:`_take_form` decides once for both
which form an operator expands: the one the sequence carries (see
:class:`~linkgamma.gamma.GammaSeq`), with no search and no check, or one
found by Berlekamp-Massey modulo a prime and checked exactly, which a
form-free sequence keeps; or none, when the operator's own route counts
less.  Without a form :func:`apply_shift` multiplies the entries by
``(1+x)^n`` through :func:`_times_binomial`, the one kernel for that
product, and :func:`swap_seq` takes the quadratic table.
"""

from __future__ import annotations

from itertools import accumulate, compress, count, repeat, zip_longest
from math import isqrt
from operator import add, mul, ne, neg, pos

from .exactnum import _P, _berlekamp_massey, _require_int, _series_quotient
from .gamma import GammaSeq


# _times_binomial takes |e| steps of one addition per entry in place of a
# product with the binomial row while they number at most this many per
# product.  Timed on Python 3.11 on a 2-core Intel Xeon host, inverse
# steps on a short numerator took as long as the product near |e| = 4|p|.
_STEPS_PER_PRODUCT = 4

# A search for a short form that finds none may cost at most this fraction
# of the work it falls back to, counted as in _take_form.
_MISS_SHARE = 64


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


def _divide_out(c, red) -> tuple[list, int]:
    """``(q, k)`` with ``c = (1+x)^k q`` and q not divisible by 1 + x, for
    a coefficient list c, each coefficient taken through ``red``: a
    reduction mod p, or ``pos`` for integers."""
    c = list(c)
    while c and not c[-1]:
        c.pop()
    k = 0
    while len(c) > 1:
        q = list(accumulate(c[:-1], lambda a, b: red(b - a)))  # c = (1+x) q + r
        if red(c[-1] - q[-1]):
            break
        c, k = q, k + 1
    return c, k


def _lift(c) -> tuple[list[int], int]:
    """``(C, k)`` with ``C[0] == 1``: the integer ``(1+x)^k C`` is what a
    connection polynomial c mod p proposes.  A shift brings in factors
    1 + x, whose binomial coefficients soon exceed p/2, so those are
    divided out mod p before the symmetric lift."""
    c, k = _divide_out(c, _P.__rmod__)
    return [v - _P if v > _P >> 1 else v for v in c], k


def _carried_cost(form) -> int:
    """Counted work per entry of expanding a carried form ``(1+x)^f P/C``,
    which holds by construction or was checked when it was kept: a
    binomial row (5), the product by it (2|P|) and the division by C
    (2|C| + 5), with no search and no check."""
    num, den, _ = form
    return 2 * len(num) + 2 * len(den) + 10


def _first_difference(a, b, start: int = 0):
    """The first index, counted from ``start``, where lists a and b differ
    within the shorter, or None."""
    return next(compress(count(start), map(ne, a, b)), None)


def _mismatch(num, den, e: int, s: GammaSeq, upto: int):
    """The first index up to ``upto`` where ``(1+x)^e num`` and ``den s``
    differ, or None."""
    return _first_difference(_times_binomial(num, e, upto), _product(den, s.entries, upto))


def _form_search(head, first, e: int, s: GammaSeq, limit: int):
    """Search, one entry of ``head`` per step, for a form of the x with
    ``(1+x)^e x = s``: integer lists P and C, ``C[0] == 1`` and at most
    ``limit`` terms in P, with ``(1+x)^f P/C = s`` through s's order.
    Yields None after each step, then ``(P, C, f)`` if found.  ``head``
    iterates the leading entries of x, ``first(m)`` gives m of them exactly.

    Berlekamp-Massey proposes a connection polynomial ``(1+x)^k C`` once a
    recurrence of length L has held past 2L entries, P is the first L terms
    of ``(1+x)^k C x`` with its factors 1 + x moved into f, f is e - k plus
    their number, and ``(1+x)^f P = C s`` is checked outright, first on the
    entries read, where a C lifted from rational coefficients fails
    cheaply.  A first difference at index j means x satisfies no
    recurrence shorter than j + 1 - L, so the search then stops or waits
    for the next proposal.  The recurrence of length 0, which holds while
    every entry read is 0, is never proposed: :func:`apply_shift` and
    :func:`swap_seq` return a sequence of zeros as it is."""
    need, rejected = 0, None
    for k, (length, d, c) in enumerate(_berlekamp_massey(head)):
        if length > limit:
            return
        if length and not (d or k < need or 2 * length > k or c is rejected):
            den, m = _lift(c)
            num, i = _divide_out(_product(_times_binomial(den, m, len(den) + m - 1),
                                          first(length), length - 1), pos)
            f = e - m + i
            j = _mismatch(num, den, f, s, k)
            if j is None:
                j = _mismatch(num, den, f, s, s.order)
                if j is None:
                    yield num, den, f
                    return
            if j + 1 - length > limit:
                return
            need, rejected = j + 1, c
        yield None


def _tail_search(s: GammaSeq, limit: int):
    """Search, one of the last ``2 * limit + 2`` entries of s per step, for
    a form ``(1+x)^f P/C`` of s with ``C[0] == 1`` and
    ``4 (|C| + |P|) < 6 limit``, f of any size, as in a copy T^m, m >= 0,
    of a sequence with a short form.  Yields as :func:`_form_search` does.

    Berlekamp-Massey proposes the recurrence ``(1+x)^k C`` of the entries
    past the numerator, and ``d = (1+x)^k C s`` through the order makes
    s = d/((1+x)^k C) an identity there.  If d vanishes wherever the
    recurrence holds, it has a degree D; for the least r that makes
    ``(1+x)^(r-D) d`` a polynomial of degree r, read off its first terms,
    that is ``P = (1+x)^(-j) d``, j = D - r, and ``(1+x)^j P = d`` is
    checked outright.  A gamma sequence's P is as long as its C, so a C
    that leaves P fewer terms ends the search before d is formed."""
    order = s.order
    start = max(0, order - 2 * limit - 1)
    need, rejected = 0, None
    for k, (length, disc, c) in enumerate(_berlekamp_massey(s.entries[start:])):
        if length > limit:
            return
        if not (disc or k < need or 2 * length > k or c is rejected):
            den, m = _lift(c)
            full = _times_binomial(den, m, len(den) + m - 1)
            terms = (6 * limit - 1) // 4 - len(full)  # the most P may have
            if terms < len(full):
                return
            d = _product(full, s.entries, order)
            held = start + length  # the recurrence holds from here on
            j = next(compress(count(held), d[held:]), None)
            if j is not None:
                if j + 1 - held > limit:
                    return
                need, rejected = j + 1 - start, c
            else:
                top = next(compress(count(held - 1, -1), reversed(d[:held])), -1)
                w = _product(_binomials(-top, terms + 1), d, terms)
                for r in range(terms):
                    if not any(w[r + 1 :]):
                        if _times_binomial(w[: r + 1], top - r, top) == d[: top + 1]:
                            yield w[: r + 1], den, top - r - m
                        return
                    w[1:] = map(add, w[1:], w)
                return
        yield None


def _short_form(s: GammaSeq, n: int, limit: int):
    """``(P, C, e)`` with at most ``limit`` terms in P, from two searches
    run in step, so that a form found early ends both, or None:

    - **A form of s, from its last entries** (:func:`_tail_search`), which
      satisfy the recurrence C past the numerator however long that is.
      Its check and expansion count 4|P| + 4|C| + 16 per entry.
    - **A form of T^n s** (e = -n), from its leading entries by one
      binomial row (:func:`_form_search`): 2|P| + 4|C| + 11 per entry.
      This one finds the forms whose denominator is long (T^m s with
      m < 0) or whose numerator fills the truncation."""
    # a search that has read 2 * limit + 2 entries has found its form or
    # passed the limit
    reach = min(s.order + 1, 2 * limit + 2)
    row = _binomials(n, reach)
    row_p = [b % _P for b in row]
    s_p = [e % _P for e in s.entries[:reach]]
    shifted = (sum(map(mul, row_p, s_p[k::-1])) for k in range(reach))
    searches = zip_longest(
        _tail_search(s, limit),
        _form_search(shifted, lambda m: [sum(map(mul, row, s.entries[k::-1]))
                                         for k in range(m)], -n, s, limit))
    return next((form for found in searches for form in found if form), None)


def _take_form(s: GammaSeq, fallback: int, search):
    """The form ``(P, C, f)`` an operator on s expands, or None when its
    route without one, counting ``fallback`` per entry, costs less.  The
    form s carries or kept is taken, with no search and no check, when its
    expansion (:func:`_carried_cost`) counts less than the fallback, and a
    dearer one leaves the fallback: a search could only find a shorter form
    than one that is not reduced.  A form-free s is searched by
    ``search(limit)`` for a form of at most ``limit`` terms in P, whose
    check and expansion count at most 6L + 15 for L terms, while that
    stays below the fallback and while a miss, which reads 2L + 2 entries
    in about 6 (L + 1)^2 operations on residues, costs at most
    1/_MISS_SHARE of the fallback through the order.  s keeps the form the
    search found, checked through its order."""
    if s._form:
        return s._form if _carried_cost(s._form) < fallback else None
    limit = min((fallback - 16) // 6,
                isqrt((s.order + 1) * fallback // (6 * _MISS_SHARE)) - 1)
    form = search(limit) if limit > 0 else None
    if form:
        s._keep(form)
    return form


def apply_shift(s: GammaSeq, n: int) -> GammaSeq:
    """Apply the shift-plus-identity operator n times (entry k becomes
    ``s[k] + s[k-1]``).  Negative n inverts: the operator is a bijection
    on sequences, with preimage ``b[0] = a[0], b[k] = a[k] - b[k-1]``.
    Entry k of the result depends only on entries up to k, so the
    truncation order is preserved.

    T^n multiplies the generating function by ``(1+x)^n``, so a form
    ``(1+x)^e P/C = s`` shifts to ``(1+x)^(e+n) P/C``.  The form is taken
    by :func:`_take_form` against a fallback of |n| per entry for the
    steps, or order + 4 for the binomial sum ``sum_j C(n, j) s[k-j]``,
    whose cost does not grow with n; :func:`_short_form` searches for it.
    Without one the entries are multiplied by ``(1+x)^n`` by
    :func:`_times_binomial`, which takes the steps for |n| up to
    4 (order + 1) and the binomial sum beyond.  No result rests on the
    modular guess, and results carry no form."""
    _require_int(n, "shift count n")
    if not any(s.entries):
        return GammaSeq._built(s.entries)
    order = s.order
    form = _take_form(s, min(abs(n), order + 4), lambda limit: _short_form(s, n, limit))
    if form:
        num, den, e = form
        return GammaSeq._built(_series_quotient(_times_binomial(num, e + n, order), den, order))
    return GammaSeq._built(_times_binomial(s.entries, n, order))


def _reflect(p, d: int) -> list:
    """Coefficients of ``(1+y)^d p(-y/(1+y))``, that is
    ``sum_i p_i (-y)^i (1+y)^(d-i)``, for d at least the degree of p."""
    out = [0] * (d + 1)
    for i, pi in enumerate(p):
        if pi:
            row = _binomials(d - i, d + 1 - i)
            out[i:] = map(add, out[i:], map(mul, repeat(-pi if i % 2 else pi), row))
    return out


def swap_seq(s: GammaSeq) -> GammaSeq:
    """Gamma sequence after swapping the second and third components.

    Entry 0 is unchanged (linking number is symmetric); entry k becomes
    ``(-1)^k * sum_j C(k-1, j-1) s[j]`` for ``1 <= j <= k``, which is
    ``mixed_gamma0(s, 0, k)``.  The transform is an involution.

    The rule is x -> -y/(1+y), t -> 1/t on h, so a form ``(1+x)^f P/C``
    of s swaps to ``(1+y)^(-f) P~/C~``, ``P~ = (1+y)^d P(-y/(1+y))`` and C~
    likewise for d >= deg P, deg C: about 2|C| products per entry.  Without
    one, a forward-sum table (row 0 is ``s[1:]``, row m+1 adds row m to
    itself offset by one, entry k is ``(-1)^k`` times the head of row k-1)
    takes order^2/2 additions.  The form is taken by :func:`_take_form`
    against the table's (order + 1) // 2 additions per entry, and searched
    for on s's leading entries; no swap below order 55 searches.
    """
    if not any(s.entries):
        return GammaSeq._built(s.entries)
    order = s.order

    def search(limit):
        found = _form_search(s.entries[: 2 * limit + 2], lambda m: s.entries[:m], 0, s, limit)
        return next(filter(None, found), None)

    form = _take_form(s, (order + 1) // 2, search)
    if form:
        num, den, f = form
        d = max([len(den) - 1] + [i for i, v in enumerate(num) if v])
        return GammaSeq._built(_series_quotient(
            _times_binomial(_reflect(num, d), -f, order), _reflect(den, d), order))
    out = [s.entries[0]]
    row = list(s.entries[1:])
    while row:
        out.append(row[0])
        row = list(map(add, row, row[1:]))
    out[1::2] = map(neg, out[1::2])
    return GammaSeq._built(out)


def mixed_gamma0(s: GammaSeq, p: int, l: int) -> int:
    """Linking number of the p-fold derived second component with the
    l-fold derived third component, read off the plain gamma sequence as
    ``(-1)^l * sum_j C(l-1, j-1) s[p+j]`` for ``1 <= j <= l``.

    The binomials are one row, built left to right by
    ``C(l-1, j) = C(l-1, j-1) * (l-j) / j``, each division exact, so the
    whole value is O(l) products."""
    _require_int(p, "derivative count p", 0)
    _require_int(l, "derivative count l", 1)
    if p + l > s.order:
        raise ValueError(
            f"insufficient sequence order: need at least {p + l}, have {s.order}"
        )
    acc = sum(map(mul, _binomials(l - 1, l), s.entries[p + 1 : p + 1 + l]))
    return -acc if l % 2 else acc


def beta_from_gamma(s: GammaSeq, k: int) -> int:
    """The k-th self-linking beta invariant of a 2-component link, read
    off the gamma sequence of the link augmented by a 0-framed push-off of
    its second component: ``(-1)^k * sum_j C(k-1, j-1) s[k+j]``, which is
    ``mixed_gamma0(s, k, k)``.

    The input must be the gamma sequence of that augmented link, computed
    from a fixed Seifert surface.  The formula reads fixed positions of
    the sequence, so it is *not* invariant under the shift action on
    arbitrary sequences; only sequences actually arising from such links
    make the value a link invariant.
    """
    _require_int(k, "beta index k", 1)
    return mixed_gamma0(s, k, k)

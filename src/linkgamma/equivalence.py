"""Equivalence of gamma data modulo its indeterminacy.

Two truncated sequences represent the same class when one is carried to
the other by an integer power of the shift-plus-identity operator; two
rational functions represent the same class when they differ by an integer
power of t.  Both directions of the shift are admitted (the operator is a
bijection on sequences); a negative step is a plain prefix sum of the
sign-alternated sequence ``(-1)^k s[k]``.

When both sequences carry a form ``(1+x)^e P/C`` (see
:class:`~linkgamma.gamma.GammaSeq`), T^n a and b first differ where the
polynomial ``(1+x)^d P_a C_b - P_b C_a``, d = e_a + n - e_b, first has a
nonzero coefficient, so :func:`are_equivalent` reads its verdict off the two
forms: an equivalent pair costs about (|P| + |C|)^2 products, whatever the
order.

A pair of identically zero truncations is reported as *indeterminate*, not
equivalent: a truncation cannot distinguish the zero class from a class
whose support starts beyond the truncation order, and no false
certificates are issued.
"""

from __future__ import annotations

from .exactnum import RatFn
from .gamma import GammaSeq, Record
from .transforms import _first_difference, _product, _times_binomial, apply_shift

EQUIVALENT = "equivalent"
DISTINCT = "distinct"
INDETERMINATE = "indeterminate"

# are_equivalent compares this many entries past the leading index before
# it shifts the whole sequence, or expands a difference of forms further
_PREFIX = 16


class EquivVerdict(Record):
    """Outcome of a sequence comparison.

    ``equivalent`` carries the shift exponent taking the first sequence to
    the second on the full common truncation; ``distinct`` carries the
    smallest index by which every admissible shift has already failed.
    """

    __slots__ = ("kind", "shift", "witness_index")

    def __init__(self, kind: str, shift: int | None = None,
                 witness_index: int | None = None):
        self._set(kind, shift, witness_index)

    @classmethod
    def equivalent(cls, n: int) -> "EquivVerdict":
        return cls(EQUIVALENT, shift=n)

    @classmethod
    def distinct(cls, index: int) -> "EquivVerdict":
        return cls(DISTINCT, witness_index=index)

    @classmethod
    def indeterminate(cls) -> "EquivVerdict":
        return cls(INDETERMINATE)

    def __str__(self):
        if self.kind == EQUIVALENT:
            return f"equivalent({self.shift})"
        if self.kind == DISTINCT:
            return f"distinct({self.witness_index})"
        return "indeterminate"


def _first_nonzero(entries):
    # the leading index: of a gamma sequence, or of a coefficient tuple
    for k, e in enumerate(entries):
        if e:
            return k
    return None


def _form_mismatch(form_a, form_b, n: int, k: int, order: int):
    """The first index up to ``order`` where ``T^n a`` and b differ, read
    off their forms ``(P_a, C_a, e_a)`` and ``(P_b, C_b, e_b)``, or None.
    The two agree through index k + 1.

    T^n a - b is ``(1+x)^min(e_a + n, e_b) ((1+x)^d U - V) / (C_a C_b)``
    with ``d = e_a + n - e_b``, ``U = P_a C_b`` and ``V = P_b C_a`` (the
    two exchanged when d < 0), so its valuation is that of
    ``(1+x)^d U - V``, a polynomial of degree at most ``d + |U| - 1`` or
    ``|V| - 1``.  It is read on a truncation that ends at k + _PREFIX and
    doubles up to the order or that degree."""
    (pa, ca, ea), (pb, cb, eb) = form_a, form_b
    d = ea + n - eb
    u = _product(pa, cb, len(pa) + len(cb) - 2)
    v = _product(pb, ca, len(pb) + len(ca) - 2)
    if d < 0:
        u, v, d = v, u, -d
    end = min(order, max(d + len(u), len(v)) - 1)
    upto = k + _PREFIX
    while True:
        upto = min(upto, end)
        padded = v[: upto + 1] + [0] * (upto + 1 - len(v))
        w = _first_difference(_times_binomial(u, d, upto), padded)
        if w is not None or upto == end:
            return w
        upto *= 2


def are_equivalent(a: GammaSeq, b: GammaSeq) -> EquivVerdict:
    """Decide whether two equal-order truncations lie in the same class
    modulo the shift action.

    The leading index and leading value are shift-invariant, and the entry
    one past the leading index moves by (shift exponent) * (leading value),
    which pins the only candidate exponent n.

    When both sides carry a form, the verdict is read off the two forms,
    with no shift: the first difference of T^n a and b is the valuation of
    ``(1+x)^d P_a C_b - P_b C_a``, found on truncations that double from
    16 entries past the leading index.  That polynomial has degree below
    d + |P| + |C|, so an equivalent pair costs about (|P| + |C|)^2
    products and a pair that first differs at index w about
    2 w (|P| + |C|), at any order.

    Otherwise the remaining entries are compared outright, after shifting
    whichever sequence carries a form, or the first when neither does (see
    :func:`~linkgamma.transforms.apply_shift`), a 16-entry prefix first.
    The shifted sequence keeps a form its shift's search finds, and the
    comparison through the order proves an equivalent form-free side equal
    to T^m of the side with ``(P, C, e)``, so it keeps ``(P, C, e + m)``.
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    ka = _first_nonzero(a.entries)
    kb = _first_nonzero(b.entries)
    if ka is None and kb is None:
        return EquivVerdict.indeterminate()
    if ka is None or kb is None:
        return EquivVerdict.distinct(ka if kb is None else kb)
    if ka != kb:
        return EquivVerdict.distinct(min(ka, kb))
    if a.entries[ka] != b.entries[kb]:
        return EquivVerdict.distinct(ka)
    k = ka
    if k == a.order:
        return EquivVerdict.equivalent(0)
    lead = a.entries[k]
    diff = b.entries[k + 1] - a.entries[k + 1]
    if diff % lead:
        return EquivVerdict.distinct(k + 1)
    n = diff // lead
    if a._form and b._form:
        w = _form_mismatch(a._form, b._form, n, k, a.order)
        return EquivVerdict.equivalent(n) if w is None else EquivVerdict.distinct(w)
    # T^-n is unitriangular, so a - T^-n b first differs where T^n a - b does
    src, m, other = (b, -n, a) if b._form else (a, n, b)
    # entry i of a shift reads entries up to i, so a prefix shows a
    # difference near the front without shifting the whole sequence; the
    # whole is src itself, which keeps the form its shift's search finds
    for upto in sorted({min(a.order, k + _PREFIX), a.order}):
        part = src if upto == a.order else GammaSeq._built(src.entries[: upto + 1], src._form)
        shifted = apply_shift(part, m).entries
        if shifted[k + 1 :] != other.entries[k + 1 : upto + 1]:
            return EquivVerdict.distinct(
                _first_difference(shifted[k + 1 :], other.entries[k + 1 :], k + 1))
    if src._form and not other._form:
        num, den, e = src._form
        other._keep((num, den, e + m))
    return EquivVerdict.equivalent(n)


def canonicalize(s: GammaSeq) -> tuple[GammaSeq, int]:
    """Canonical representative of the class of ``s`` plus the exponent
    that reaches it.

    The representative is the unique shift placing the entry after the
    leading index in the least-nonnegative residue range modulo the
    leading value.  Idempotent, and constant on equivalence classes: two
    sequences are equivalent exactly when their canonical forms agree
    entrywise.
    """
    k = _first_nonzero(s.entries)
    if k is None or k == s.order:
        return s, 0
    lead = s.entries[k]
    nxt = s.entries[k + 1]
    residue = nxt % abs(lead)
    n = (residue - nxt) // lead
    return apply_shift(s, n), n


def ratfn_equivalent(f: RatFn, g: RatFn):
    """The integer n with ``f == t**n * g``, or None when the two rational
    functions are in different classes.  Two zero functions are in the
    same class with exponent 0; a zero ``g`` against a nonzero ``f`` is an
    error.  A canonical nonzero function is ``t**m * p/q`` with p(0) and
    q(0) nonzero and q itself canonical, so its class is the pair (p, q)
    of coefficient tuples left after stripping leading zeros, and n is the
    difference of the two values of m; no polynomial product is formed.
    """
    if not g:
        if f:
            raise ZeroDivisionError("comparison against zero")
        return 0
    if not f:
        return None
    vf, wf = _first_nonzero(f.num.coeffs), _first_nonzero(f.den.coeffs)
    vg, wg = _first_nonzero(g.num.coeffs), _first_nonzero(g.den.coeffs)
    if f.num.coeffs[vf:] != g.num.coeffs[vg:] or f.den.coeffs[wf:] != g.den.coeffs[wg:]:
        return None
    return (vf - wf) - (vg - wg)

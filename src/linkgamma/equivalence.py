"""Equivalence of gamma data modulo its indeterminacy.

Two truncated sequences represent the same class when one is carried to
the other by an integer power of the shift-plus-identity operator; two
rational functions represent the same class when they differ by an integer
power of t.  Both directions of the shift are admitted (the operator is a
bijection on sequences); a negative step is a plain prefix sum of the
sign-alternated sequence ``(-1)^k s[k]``.

A pair of identically zero truncations is reported as *indeterminate*, not
equivalent: a truncation cannot distinguish the zero class from a class
whose support starts beyond the truncation order, and no false
certificates are issued.
"""

from __future__ import annotations

from itertools import compress, count
from operator import ne

from .exactnum import RatFn
from .gamma import GammaSeq, Record
from .transforms import apply_shift

EQUIVALENT = "equivalent"
DISTINCT = "distinct"
INDETERMINATE = "indeterminate"

# are_equivalent compares this many entries past the leading index before
# it shifts the whole sequence
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


def are_equivalent(a: GammaSeq, b: GammaSeq) -> EquivVerdict:
    """Decide whether two equal-order truncations lie in the same class
    modulo the shift action.

    The leading index and leading value are shift-invariant, and the entry
    one past the leading index moves by (shift exponent) * (leading value),
    which pins the only candidate exponent; the remaining entries are then
    compared outright, after shifting whichever sequence carries a form
    (see :func:`~linkgamma.transforms.apply_shift`).  That comparison
    through the order proves an equivalent form-free side equal to T^m of
    the side that carries ``(P, C, e)``, so it keeps ``(P, C, e + m)``.
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
    # T^-n is unitriangular, so a - T^-n b first differs where T^n a - b does
    src, m, other = (b, -n, a) if b._form and not a._form else (a, n, b)
    # entry i of a shift reads entries up to i, so a prefix shows a
    # difference near the front without shifting the whole sequence
    for upto in sorted({min(a.order, k + _PREFIX), a.order}):
        shifted = apply_shift(GammaSeq._built(src.entries[: upto + 1], src._form), m).entries
        if shifted[k + 1 :] != other.entries[k + 1 : upto + 1]:
            pairs = map(ne, shifted[k + 1 :], other.entries[k + 1 :])
            return EquivVerdict.distinct(next(compress(count(k + 1), pairs)))
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

"""Sequence-level operators on truncated gamma sequences.

The shift action, the component-swap transform, mixed-derivative linking
numbers, and the recovery of the self-linking beta invariants are all
binomial sums in the sequence entries, so each is exact, additive in the
sequence, and needs only entries up to the index it produces.  Operations
fail loudly when the requested index exceeds the truncation order rather
than returning a silently shortened sequence.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, mul, neg

from .gamma import GammaSeq


# Above this many steps per index, apply_shift takes the binomial sum.  Timed
# on Python 3.11, the sum overtakes the steps at |n| of 1.5 to 2 times the
# order at orders 8 to 300, and only at 6 to 8 times at order 1000 with
# entries of ~2000 bits, where its binomials grow to thousands of bits.
_SHIFT_STEPS_PER_INDEX = 4


def apply_shift(s: GammaSeq, n: int) -> GammaSeq:
    """Apply the shift-plus-identity operator n times (entry k becomes
    ``s[k] + s[k-1]``).  Negative n inverts: the operator is a bijection
    on sequences, with preimage ``b[0] = a[0], b[k] = a[k] - b[k-1]``.
    Entry k of the result depends only on entries up to k, so the
    truncation order is preserved.

    For |n| up to 4 times the order the operator is applied step by step:
    a forward step is one pass adding the list to itself offset by one,
    and in the sign-alternated form ``c[k] = (-1)^k s[k]`` an inverse
    step is a plain prefix sum, so the signs are flipped once, |n| prefix
    sums are taken, and the signs are flipped back.  For larger |n| the
    cost must not grow with n: T^n multiplies the generating function by
    ``(1+x)^n``, so entry k is ``sum_j C(n, j) s[k-j]``, with generalized
    binomials for n < 0, about order^2/2 products for any n."""
    if abs(n) > _SHIFT_STEPS_PER_INDEX * s.order:
        binoms = [1]
        for j in range(1, s.order + 1):
            binoms.append(binoms[-1] * (n - j + 1) // j)
        rev = s.entries[::-1]
        return GammaSeq(tuple([sum(map(mul, binoms[: k + 1], rev[s.order - k :]))
                               for k in range(s.order + 1)]))
    entries = list(s.entries)
    if n >= 0:
        for _ in range(n):
            # slice assignment consumes the map in full before it writes
            entries[1:] = map(add, entries[1:], entries)
    else:
        entries[1::2] = map(neg, entries[1::2])
        for _ in range(-n):
            entries = list(accumulate(entries))
        entries[1::2] = map(neg, entries[1::2])
    return GammaSeq(tuple(entries))


def swap_seq(s: GammaSeq) -> GammaSeq:
    """Gamma sequence after swapping the second and third components.

    Entry 0 is unchanged (linking number is symmetric); entry k becomes
    ``(-1)^k * sum_j C(k-1, j-1) s[j]`` for ``1 <= j <= k``, which is
    ``mixed_gamma0(s, 0, k)``.  The transform is an involution.

    All entries come from one forward-sum table: row 0 is ``s[1:]`` and
    row m+1 adds row m to itself offset by one, so entry i of row m is
    ``sum_j C(m, j) s[i+1+j]`` and entry k is ``(-1)^k`` times the head of
    row k-1.  That is about order^2/2 additions and no binomials.
    """
    out = [s.entries[0]]
    row = list(s.entries[1:])
    while row:
        out.append(row[0])
        row = list(map(add, row, row[1:]))
    out[1::2] = map(neg, out[1::2])
    return GammaSeq(tuple(out))


def mixed_gamma0(s: GammaSeq, p: int, l: int) -> int:
    """Linking number of the p-fold derived second component with the
    l-fold derived third component, read off the plain gamma sequence as
    ``(-1)^l * sum_j C(l-1, j-1) s[p+j]`` for ``1 <= j <= l``.

    The binomials are one row, built left to right by
    ``C(l-1, j) = C(l-1, j-1) * (l-j) / j``, each division exact, so the
    whole value is O(l) products."""
    if p < 0:
        raise ValueError("derivative count p must be nonnegative")
    if l < 1:
        raise ValueError("derivative count l must be positive")
    if p + l > s.order:
        raise ValueError(
            f"insufficient sequence order: need at least {p + l}, have {s.order}"
        )
    binoms = [1]
    for j in range(1, l):
        binoms.append(binoms[-1] * (l - j) // j)
    acc = sum(map(mul, binoms, s.entries[p + 1 : p + 1 + l]))
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
    if k < 1:
        raise ValueError("beta index k must be positive")
    return mixed_gamma0(s, k, k)

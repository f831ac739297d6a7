"""Milnor-invariant residues of a gamma sequence.

The k-th entry of a gamma sequence lifts a higher-order linking number
that is only well defined modulo the gcd of the earlier entries.  This
module reduces each entry accordingly: modulus 0 encodes "exact integer,
no indeterminacy" (always the case at index 0, and at every index preceded
only by zeros), and positive moduli carry least-nonnegative residues.

The reductions are genuine invariants of the underlying link even though
the raw sequence is defined only up to the shift action: shifting adds the
previous entry to each entry, the previous entry is itself one of the gcd
generators, and the gcd chain is unchanged under that move.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, takewhile
from operator import ne

from .gamma import GammaSeq, Record, build_records


class MilnorResidue(Record):
    """Entry ``index`` reduced modulo ``modulus``; modulus 0 means the
    residue is the exact integer value."""

    __slots__ = ("index", "modulus", "residue")

    def __init__(self, index: int, modulus: int, residue: int):
        self._set(index, modulus, residue)


def milnor_residues(s: GammaSeq) -> list[MilnorResidue]:
    """Reduce each sequence entry modulo the gcd of the entries before it.

    The modulus at index k is ``gcd{|s[i]| : i < k}`` with the empty gcd
    taken as 0 and zeros ignored by gcd; equivalently the moduli follow
    the chain ``m[k+1] = gcd(m[k], |s[k]|)``.
    """
    # once the chain reaches 1 every later modulus is 1 and residue 0
    moduli = list(takewhile(partial(ne, 1), accumulate(s.entries[:-1], math.gcd, initial=0)))
    residues = [v % m if m else v for v, m in zip(s.entries, moduli)]
    rest = len(s.entries) - len(moduli)
    return build_records(MilnorResidue, range(len(s.entries)),
                         moduli + [1] * rest, residues + [0] * rest)

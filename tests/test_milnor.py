import math
import random
from functools import reduce

from linkgamma.gamma import GammaSeq
from linkgamma.milnor import MilnorResidue, milnor_residues
from linkgamma.transforms import apply_shift


def rand_seq(rng, order):
    return GammaSeq(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


def test_single_spike_example():
    out = milnor_residues(GammaSeq((0, 0, 0, 1, 0)))
    assert out == [
        MilnorResidue(0, 0, 0),
        MilnorResidue(1, 0, 0),
        MilnorResidue(2, 0, 0),
        MilnorResidue(3, 0, 1),
        MilnorResidue(4, 1, 0),
    ]


def test_gcd_chain_example():
    out = milnor_residues(GammaSeq((2, 4, 7)))
    assert out == [
        MilnorResidue(0, 0, 2),
        MilnorResidue(1, 2, 0),
        MilnorResidue(2, 2, 1),
    ]


def test_unit_lead_kills_everything_after_index_zero():
    out = milnor_residues(GammaSeq((1, 9, -4, 7, 0)))
    assert out[0] == MilnorResidue(0, 0, 1)
    assert all(r.modulus == 1 and r.residue == 0 for r in out[1:])


def test_index_zero_is_always_exact():
    rng = random.Random(307)
    for _ in range(50):
        s = rand_seq(rng, 6)
        first = milnor_residues(s)[0]
        assert first.modulus == 0 and first.residue == s.entries[0]


def test_moduli_match_independent_gcd_oracle():
    rng = random.Random(311)
    for _ in range(80):
        s = rand_seq(rng, 10)
        out = milnor_residues(s)
        for k, r in enumerate(out):
            expected = reduce(math.gcd, (abs(e) for e in s.entries[:k]), 0)
            assert r.modulus == expected
            if expected:
                assert 0 <= r.residue < expected
                assert (s.entries[k] - r.residue) % expected == 0
            else:
                assert r.residue == s.entries[k]


def test_modulus_recurrence():
    rng = random.Random(313)
    for _ in range(40):
        s = rand_seq(rng, 10)
        out = milnor_residues(s)
        for k in range(len(out) - 1):
            assert out[k + 1].modulus == math.gcd(out[k].modulus, abs(s.entries[k]))


def test_residues_are_shift_invariant():
    rng = random.Random(317)
    for _ in range(120):
        s = rand_seq(rng, 16)
        base = milnor_residues(s)
        for n in range(-5, 6):
            assert milnor_residues(apply_shift(s, n)) == base


def gcd_chain_oracle(entries):
    # every modulus and residue from its definition, with no shortcut
    out = []
    for k, e in enumerate(entries):
        m = reduce(math.gcd, (abs(v) for v in entries[:k]), 0)
        out.append(MilnorResidue(k, m, e % m if m else e))
    return out


def test_chains_that_reach_one_or_never_do():
    big = 3**400
    cases = [
        (6, 9, 5, big, -big, 7),  # gcd 6, 3, then 1 at index 3
        (2, 3, big, 11, -4),  # 1 at index 2
        (-1, big, 2, 3),  # 1 at index 1
        (4, -8, 2**500, 6, 10, 2),  # all even: never 1
        (0, 0, 0, 5, 10, 3, big),  # leading zeros, then 5, then 1
        (0, 0, 0, 0),  # all zeros
        (7,),
    ]
    for entries in cases:
        assert milnor_residues(GammaSeq(entries)) == gcd_chain_oracle(entries)

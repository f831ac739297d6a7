"""Forms carried by the sequences the library computes.

``gamma_seq`` past its switch to the Cayley-Hamilton recurrence returns a
sequence carrying its form ``P/C``, which ``apply_shift`` expands in place
of a searched form.  A form only saves work: every operation must give the
same result on a sequence and on its form-free copy
``GammaSeq(seq.entries)``, and the form is never a field."""

import copy
import pickle
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgamma import equivalence, transforms
from linkgamma.equivalence import EquivVerdict, are_equivalent, canonicalize
from linkgamma.exactnum import _series_quotient
from linkgamma.gamma import GammaSeq, _recurrence_pays, gamma_seq, gen_presentation
from linkgamma.transforms import _carried_cost, apply_shift, swap_seq

from test_transforms import binomial_shift


def recurrence_switch(genus):
    # the first order at which gamma_seq takes the recurrence
    n = 2 * genus
    return next(order for order in range(n, 10**4) if _recurrence_pays(n, order))


@st.composite
def gamma_sequences(draw):
    # gamma sequences at genus 1-6 on both sides of gamma_seq's switch
    genus = draw(st.integers(1, 6))
    switch = recurrence_switch(genus)
    order = draw(st.one_of(st.integers(max(0, switch - 4), switch + 4),
                           st.integers(switch, 400)))
    return gamma_seq(gen_presentation(draw(st.integers(0, 10**6)), genus, 3), order)


@st.composite
def exponents(draw, s):
    # n of both signs on both sides of the count that takes a carried form
    # (and of apply_shift's other switches), and far past the order
    cost = _carried_cost(s._form) if s._form else 30
    n = draw(st.one_of(
        st.sampled_from([0, 1, 21, 22, cost - 1, cost, cost + 1, s.order + 4,
                         4 * s.order + 1, 10**9 + 7]),
        st.integers(0, 2 * s.order + 10),
    ))
    return n * draw(st.sampled_from([1, -1]))


def test_gamma_seq_carries_its_form_past_the_switch():
    for genus in range(1, 7):
        switch = recurrence_switch(genus)
        p = gen_presentation(genus, genus, 3)
        assert gamma_seq(p, switch - 1)._form is None
        num, den, f = gamma_seq(p, switch)._form
        assert (len(num), len(den), f) == (2 * genus + 1, 2 * genus + 1, 0)


@settings(max_examples=60, deadline=None)
@given(s=gamma_sequences())
def test_carried_form_is_exact_and_not_a_field(s):
    if s._form is not None:
        num, den, f = s._form
        assert f == 0 and den[0] == 1
        assert _series_quotient(num, den, s.order) == list(s.entries)
    plain = GammaSeq(s.entries)
    assert plain._form is None
    assert s == plain and not s != plain
    assert hash(s) == hash(plain) and repr(s) == repr(plain)
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and clone._form is None


@settings(max_examples=60, deadline=None)
@given(s=gamma_sequences(), data=st.data())
@example(s=gamma_seq(gen_presentation(5, 4, 3), 300), data=None)
def test_shift_swap_and_canonical_form_ignore_a_carried_form(s, data):
    plain = GammaSeq(s.entries)
    ns = [data.draw(exponents(s)) for _ in range(2)] if data else [-290, 150, 9]
    for n in ns:
        shifted = apply_shift(s, n)
        assert shifted.entries == apply_shift(plain, n).entries
        assert shifted._form is None
        assert apply_shift(shifted, -n) == s
    swapped = swap_seq(s)
    assert swapped.entries == swap_seq(plain).entries
    assert swap_seq(swapped) == s
    assert canonicalize(s) == canonicalize(plain)


@settings(max_examples=60, deadline=None)
@given(s=gamma_sequences(), m=st.integers(-500, 500), seed=st.integers(0, 10**6))
def test_equivalence_ignores_a_carried_form(s, m, seed):
    plain = GammaSeq(s.entries)
    shifted = GammaSeq(binomial_shift(s.entries, m))
    rng = random.Random(seed)
    j = rng.randrange(s.order + 1)
    raised = GammaSeq(s.entries[:j] + (s.entries[j] + rng.randint(1, 9),) + s.entries[j + 1:])
    bumped = GammaSeq(shifted.entries[:j] + (shifted.entries[j] + 1,) + shifted.entries[j + 1:])
    for other in (shifted, raised, bumped, apply_shift(s, m)):
        assert are_equivalent(s, other) == are_equivalent(plain, other)
        assert are_equivalent(other, s) == are_equivalent(other, plain)
    lead = next((k for k, e in enumerate(s.entries) if e), None)
    if lead is not None and lead + 1 < j:
        assert are_equivalent(s, raised) == EquivVerdict.distinct(j)
        assert are_equivalent(s, bumped) == EquivVerdict.distinct(j)
        assert are_equivalent(bumped, s) == EquivVerdict.distinct(j)
    if lead is not None and lead < s.order:
        assert are_equivalent(s, shifted) == EquivVerdict.equivalent(m)
        assert are_equivalent(apply_shift(s, m), s) == EquivVerdict.equivalent(-m)


def test_a_carried_form_takes_the_place_of_the_search(monkeypatch):
    # records every search, and every shift that are_equivalent asks for
    searches, shifts = [], []

    def searching(*args):
        searches.append(args[2])
        return form_search(*args)

    def shifting(s, n):
        shifts.append((s._form is not None, n))
        return shift(s, n)

    form_search, shift = transforms._form_search, equivalence.apply_shift
    monkeypatch.setattr(transforms, "_form_search", searching)
    monkeypatch.setattr(equivalence, "apply_shift", shifting)
    s = gamma_seq(gen_presentation(1, 3, 3), 300)  # genus 3: P and C of 7 terms
    plain = GammaSeq(s.entries)
    assert s.entries[0] and _carried_cost(s._form) == 38
    for n in (-300, -39, -38, -1, 0, 1, 38, 39, 1201):
        assert apply_shift(s, n).entries == binomial_shift(s.entries, n)
    assert searches == []
    apply_shift(plain, 300)
    assert searches  # the form-free copy searches
    # are_equivalent shifts the sequence that carries a form, a prefix of
    # it first and then the whole
    for n in (-300, -35, 35, 300):
        copy_ = GammaSeq(binomial_shift(s.entries, n))
        shifts.clear()
        assert are_equivalent(s, copy_) == EquivVerdict.equivalent(n)
        assert are_equivalent(copy_, s) == EquivVerdict.equivalent(-n)
        assert are_equivalent(plain, copy_) == EquivVerdict.equivalent(n)
        assert shifts == [(True, n)] * 4 + [(False, n)] * 2
    # no argument gains a form
    for n in (-300, 300):
        apply_shift(plain, n)
        canonicalize(plain)
        swap_seq(plain)
        are_equivalent(plain, s)
        are_equivalent(s, plain)
        assert plain._form is None

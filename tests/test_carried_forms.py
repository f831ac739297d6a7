"""Forms carried by the sequences the library computes.

``gamma_seq`` past its switch to the Cayley-Hamilton recurrence returns a
sequence carrying its form ``P/C``, which ``apply_shift`` expands in place
of a searched form.  A form only saves work: every operation must give the
same result on a sequence and on its form-free copy
``GammaSeq(seq.entries)``, and the form is never a field."""

import copy
import pickle
import random
from contextlib import contextmanager
from math import comb
from operator import add
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgamma import equivalence, transforms
from linkgamma.equivalence import EquivVerdict, are_equivalent, canonicalize
from linkgamma.exactnum import _expand, _series_quotient
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
                         4 * s.order + 4, 4 * s.order + 5, 10**9 + 7]),
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
    # each call on form-free copies, since an equivalent verdict leaves one
    # side keeping the other's form
    shifted = binomial_shift(s.entries, m)
    rng = random.Random(seed)
    j = rng.randrange(s.order + 1)
    raised = s.entries[:j] + (s.entries[j] + rng.randint(1, 9),) + s.entries[j + 1:]
    bumped = shifted[:j] + (shifted[j] + 1,) + shifted[j + 1:]
    for other in (shifted, raised, bumped, apply_shift(s, m).entries):
        assert are_equivalent(s, GammaSeq(other)) == are_equivalent(GammaSeq(s.entries),
                                                                    GammaSeq(other))
        assert are_equivalent(GammaSeq(other), s) == are_equivalent(GammaSeq(other),
                                                                    GammaSeq(s.entries))
    lead = next((k for k, e in enumerate(s.entries) if e), None)
    if lead is not None and lead + 1 < j:
        assert are_equivalent(s, GammaSeq(raised)) == EquivVerdict.distinct(j)
        assert are_equivalent(s, GammaSeq(bumped)) == EquivVerdict.distinct(j)
        assert are_equivalent(GammaSeq(bumped), s) == EquivVerdict.distinct(j)
    if lead is not None and lead < s.order:
        assert are_equivalent(s, GammaSeq(shifted)) == EquivVerdict.equivalent(m)
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
    num, den, _ = s._form
    assert s.entries[0] and _carried_cost(s._form) == 38
    # a form-free copy searches once and keeps the form it found, which its
    # later shifts, swaps and canonical form read
    plain = GammaSeq(s.entries)
    apply_shift(plain, 300)
    assert searches and plain._form is not None
    searches.clear()
    for n in (-300, 300):
        assert apply_shift(plain, n).entries == binomial_shift(s.entries, n)
    assert swap_seq(plain) == swap_seq(s)
    assert canonicalize(plain) == canonicalize(s)
    assert searches == []
    # the carried form is never searched past
    for n in (-300, -39, -38, -1, 0, 1, 38, 39, 1201):
        assert apply_shift(s, n).entries == binomial_shift(s.entries, n)
    assert searches == []
    # are_equivalent shifts the sequence that carries a form, a prefix of
    # it first and then the whole, and the form-free side keeps (P, C, n)
    for n in (-300, -35, 35, 300):
        for carried_first in (True, False):
            copy_ = GammaSeq(binomial_shift(s.entries, n))
            shifts.clear()
            if carried_first:
                assert are_equivalent(s, copy_) == EquivVerdict.equivalent(n)
            else:
                assert are_equivalent(copy_, s) == EquivVerdict.equivalent(-n)
            assert shifts == [(True, n)] * 2
            assert copy_._form == (num, den, n)
        # when neither side carries a form the first is shifted, a prefix
        # copy and then the sequence itself, which keeps the form its
        # search finds; the search is limited to 3 terms at |n| = 35, too
        # few for these 7, and the second side keeps the first's form
        # moved by n
        a, b = GammaSeq(s.entries), GammaSeq(binomial_shift(s.entries, n))
        shifts.clear()
        assert are_equivalent(a, b) == EquivVerdict.equivalent(n)
        assert shifts == [(False, n)] * 2
        if abs(n) == 35:
            assert a._form is None and b._form is None
        else:
            kept_num, kept_den, f = a._form
            assert b._form == (kept_num, kept_den, f + n)
    # a distinct verdict keeps nothing
    bumped = GammaSeq(binomial_shift(s.entries, 35)[:-1] + (0,))
    assert are_equivalent(s, bumped).kind == equivalence.DISTINCT
    assert bumped._form is None


def pool_of(s, m, seed):
    # s, and form-free copies of it: as it is, shifted by m, with 1 or -1
    # added to every entry (each the same, which leaves a short form, or
    # each drawn, which leaves none) and to the last alone; and zeros
    rng = random.Random(seed)
    c = rng.choice((-1, 1))
    return [s, GammaSeq(s.entries), GammaSeq(binomial_shift(s.entries, m)),
            GammaSeq(tuple(e + c for e in s.entries)),
            GammaSeq(tuple(e + rng.choice((-1, 1)) for e in s.entries)),
            GammaSeq(s.entries[:-1] + (s.entries[-1] + c,)),
            GammaSeq((0,) * (s.order + 1))]


def _leading(s):
    return next((k for k, e in enumerate(s.entries) if e), s.order)


@st.composite
def form_free_pools(draw):
    s = draw(gamma_sequences())
    return pool_of(s, draw(st.integers(-s.order, s.order)), draw(st.integers(0, 10**6)))


@st.composite
def chains(draw):
    # operations on members of the pool, with shifts on both sides of the
    # searches' switches and far past them
    step = st.tuples(st.sampled_from(["equiv", "shift", "swap", "canon"]),
                     st.integers(0, 6), st.integers(0, 6),
                     st.one_of(st.integers(-700, 700),
                               st.sampled_from([-400, -300, -100, 60, 200, 300, 1700])))
    return draw(st.lists(step, min_size=2, max_size=8))


@contextmanager
def found_forms():
    # the sequence each search read and what it found: apply_shift's
    # (_short_form) and swap_seq's (_form_search), None for a miss
    found = {"shift": [], "swap": []}

    def short_form(*args):
        form = short_form_(*args)
        found["shift"].append((args[0], form))
        return form

    def form_search(*args):
        found["swap"].append((args[3], None))
        for form in form_search_(*args):
            if form:
                found["swap"][-1] = (args[3], form)
            yield form

    short_form_, form_search_ = transforms._short_form, transforms._form_search
    with mock.patch.object(transforms, "_short_form", short_form), \
            mock.patch.object(transforms, "_form_search", form_search):
        yield found


def assert_exact_form(s):
    if s._form is not None:
        num, den, f = s._form
        assert den[0] == 1
        assert _expand(num, den, f, s.order) == list(s.entries)


@settings(max_examples=60, deadline=None)
@given(pool=form_free_pools(), steps=chains())
# each site that keeps a form, then each that must keep none: an equivalent
# verdict on T^40 s, the shift's search, the swap's search on s + c, a
# canonical form through a kept form, a swap's miss, distinct verdicts at
# entry 0 and at the last, and zeros
@example(pool=pool_of(gamma_seq(gen_presentation(1, 2, 3), 300), 40, 0),
         steps=[("equiv", 0, 2, 0), ("shift", 1, 0, 300), ("swap", 3, 0, 0),
                ("canon", 2, 0, 0), ("swap", 4, 0, 0), ("equiv", 4, 1, 0),
                ("equiv", 0, 5, 0), ("shift", 6, 0, 300), ("swap", 6, 0, 0)])
# two form-free sides: the first keeps the form its shift's search finds
# (at n = 60 a limit of 5 lets the tail search take |P| + |C| up to 7, and
# this form has 3 + 3) and the second keeps it moved by 60; then a verdict
# read off both kept forms, and a distinct one at the last entry
@example(pool=pool_of(gamma_seq(gen_presentation(1, 1, 3), 300), 60, 0),
         steps=[("equiv", 1, 2, 0), ("equiv", 2, 1, 0), ("equiv", 1, 5, 0)])
def test_a_kept_form_is_exact_and_only_a_proved_one_is_kept(pool, steps):
    plain = [GammaSeq(s.entries) for s in pool]
    for op, i, j, n in steps:
        a, b = pool[i], pool[j]
        before = a._form, b._form
        fresh_a, fresh_b = GammaSeq(a.entries), GammaSeq(b.entries)
        if op == "equiv":
            with found_forms() as found:
                verdict = are_equivalent(a, b)
            assert verdict == are_equivalent(fresh_a, fresh_b)
            # a form-free side keeps what the search of its own shift found,
            # or, on an equivalent verdict, the form the other side has
            # after the call; a side with a form keeps it
            for x, y, x_before in ((a, b, before[0]), (b, a, before[1])):
                if x_before is None and x is not y:
                    searched = any(form for s, form in found["shift"] if s is x)
                    proved = verdict.kind == equivalence.EQUIVALENT and y._form is not None
                    compared = _leading(x) < x.order
                    assert (x._form is not None) == (searched or (proved and compared))
                elif x_before is not None:
                    assert x._form == x_before
        else:
            call = {"shift": lambda s: apply_shift(s, n), "swap": swap_seq,
                    "canon": canonicalize}[op]
            with found_forms() as found:
                result = call(a)
            searched = [form for s, form in found["swap" if op == "swap" else "shift"]
                        if s is a]
            assert len(searched) <= 1
            assert result == call(fresh_a)
            if op != "canon":
                assert result._form is None  # results carry no form
            # a sequence keeps what its search found, and a miss keeps nothing
            if before[0] is None:
                assert (a._form is not None) == bool(searched and searched[0])
            else:
                assert a._form == before[0]
        for s in pool:
            assert_exact_form(s)
    assert pool[-1]._form is None  # the zeros
    for s, p in zip(pool, plain):
        assert s == p and not s != p
        assert hash(s) == hash(p) and repr(s) == repr(p)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and clone._form is None


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rewritten(form, j=0, q=(1,), past=None):
    # the form written another way: (P (1+x)^j, C, f - j), then P and C
    # both times q (q[0] == 1), which keep its expansion; then x^past C
    # added to P, which adds (1+x)^f x^past to it
    num, den, f = form
    num = poly_mul(num, [comb(j, i) for i in range(j + 1)])
    num, den = poly_mul(num, q), poly_mul(den, q)
    if past is not None:
        num = [*num, *[0] * (past + len(den) - len(num))]
        num[past : past + len(den)] = map(add, num[past : past + len(den)], den)
    return num, den, f - j


def formed(p, order):
    # gamma_seq(p, order) carrying its form, which below the recurrence
    # switch is read off the sequence at the switch
    s = gamma_seq(p, order)
    return s if s._form else GammaSeq._built(
        s.entries, gamma_seq(p, recurrence_switch(p.genus))._form)


def form_verdict(a, b):
    # both directions read off the two forms, with no shift, and each the
    # verdict of the same call on form-free copies
    assert a._form and b._form
    with mock.patch.object(equivalence, "apply_shift", side_effect=AssertionError):
        verdicts = are_equivalent(a, b), are_equivalent(b, a)
    plain_a, plain_b = GammaSeq(a.entries), GammaSeq(b.entries)
    assert verdicts == (are_equivalent(plain_a, plain_b), are_equivalent(plain_b, plain_a))
    return verdicts[0]


rewrites = st.tuples(st.integers(0, 4),
                     st.sampled_from([(1,), (1, -2), (1, 1), (1, 3, -1)]),
                     st.booleans())


@settings(max_examples=60, deadline=None)
@given(genus=st.sampled_from(range(1, 9)), seed=st.integers(0, 10**6), data=st.data())
def test_a_verdict_read_off_two_forms_is_the_shift_routes(genus, seed, data):
    order = data.draw(st.sampled_from(range(4 * genus + 2, 1001)))
    s = formed(gen_presentation(seed, genus, 3), order)
    if data.draw(st.booleans()):
        # T^m of s, or of s plus x^j, whose form (P + x^j C, C, m) a
        # form-free copy keeps from an equivalent verdict against one that
        # carries it
        m = data.draw(st.one_of(st.integers(-60, 60),
                                st.sampled_from(range(-3 * order, 3 * order + 1))))
        j = data.draw(st.one_of(st.none(), st.sampled_from(range(order + 1))))
        num, den, _ = rewritten(s._form, past=j)
        source = GammaSeq._built(_series_quotient(num, den, order), (num, den, 0))
        other = GammaSeq(apply_shift(source, m).entries)
        are_equivalent(source, other)
        if other._form is None:  # a leading index at the order: nothing compared
            other._keep((num, den, m))
        k = _leading(s)
        if j is None:
            want = EquivVerdict.equivalent(m) if k < order else None
        else:
            want = EquivVerdict.distinct(j) if k + 1 < j else None
    else:
        # another presentation's sequence
        other = formed(gen_presentation(data.draw(st.integers(0, 10**6)),
                                        data.draw(st.sampled_from(range(1, 9))), 3), order)
        want = None
    pair = []
    for x in (s, other):
        ones, q, past = data.draw(rewrites)
        form = rewritten(x._form, ones, q, order + 1 if past else None)
        pair.append(GammaSeq._built(x.entries, form))
    verdict = form_verdict(*pair)
    if want is not None:
        assert verdict == want


def test_verdicts_read_off_two_forms_at_the_edges():
    s = formed(gen_presentation(4, 3, 3), 1000)
    k = _leading(s)
    form = s._form
    assert k < 10 and s.entries[k]
    # a difference just past the pinned entries, and at the last entry,
    # each after T^m
    for j in (k + 2, 1000):
        for m in (-3000, -1, 0, 2, 700):
            bumped = rewritten(form, past=j)
            other = GammaSeq(apply_shift(GammaSeq(_series_quotient(*bumped[:2], 1000)), m).entries)
            other._keep((*bumped[:2], m))
            assert form_verdict(s, other) == EquivVerdict.distinct(j)
    # forms that differ past the order, share a factor, or carry factors
    # 1 + x that make d nonzero of either sign
    num, den, f = rewritten(form, 3, (1, -2), 1001)
    copy_ = GammaSeq._built(apply_shift(s, 35).entries, (num, den, f + 35))
    assert form_verdict(s, copy_) == EquivVerdict.equivalent(35)
    assert form_verdict(GammaSeq._built(s.entries, rewritten(form, 4)), copy_) == \
        EquivVerdict.equivalent(35)
    # b = 1 + 2x and a = (1+x)^-3 ((1+x)^3 b + x^4): d = -3, and the two
    # first differ at the degree of (1+x)^3 b, past both P_a (1+x)^-3 and b
    num = [1, 5, 9, 7, 3]
    a = GammaSeq._built(binomial_shift(num + [0] * 6, -3), (num, (1,), -3))
    b = GammaSeq._built((1, 2) + (0,) * 9, ((1, 2), (1,), 0))
    assert form_verdict(a, b) == EquivVerdict.distinct(4)

"""The memo of the last two expansions, ``exactnum._expansions``.

``gamma_seq`` past its switch, ``series_expand_at_one`` and ``apply_shift``
on a sequence with a form read and fill one memo keyed by
``(order, e, P, C)``.  It only saves work: every result must be the same
with a cold memo and with one that an equivalent sequence warmed."""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgamma import exactnum, transforms
from linkgamma.equivalence import EquivVerdict, are_equivalent, canonicalize
from linkgamma.exactnum import Poly, RatFn, series_expand_at_one
from linkgamma.gamma import (
    GammaSeq,
    SeifertPresentation,
    gamma_seq,
    gen_presentation,
    h_closed_form,
)
from linkgamma.transforms import apply_shift

from test_transforms import POWERS_OF_TWO, binomial_shift


def spy(monkeypatch):
    # records every series quotient and every product by (1+x)^e
    calls = []

    def quotient(num, den, order):
        calls.append("quotient")
        return series_quotient(num, den, order)

    def times_binomial(p, e, order):
        calls.append("binomial")
        return times_binomial_(p, e, order)

    series_quotient, times_binomial_ = exactnum._series_quotient, transforms._times_binomial
    monkeypatch.setattr(exactnum, "_series_quotient", quotient)
    monkeypatch.setattr(transforms, "_series_quotient", quotient)
    monkeypatch.setattr(transforms, "_times_binomial", times_binomial)
    return calls


def test_h_expands_what_gamma_seq_just_expanded(monkeypatch):
    # genus 3, seed 1: h's denominator is -1 at t = 1, so its shifted pair
    # is negated into gamma_seq's form (P, C) with C[0] = 1
    p = gen_presentation(1, 3, 3)
    h = h_closed_form(p)
    assert h.den(1) == -1
    s = gamma_seq(p, 1000)
    calls = spy(monkeypatch)
    expansion = series_expand_at_one(h, 1000)
    assert calls == []
    assert expansion.coeffs == s.entries
    assert expansion.coeffs is s.entries  # one immutable tuple, shared


def test_the_second_canonical_form_of_a_class_expands_nothing(monkeypatch):
    s = gamma_seq(gen_presentation(1, 3, 3), 1000)
    for m in (-300, 7, 300):
        copy = GammaSeq(binomial_shift(s.entries, m))
        assert are_equivalent(s, copy) == EquivVerdict.equivalent(m)
        assert copy._form is not None  # kept from s's form
        for first, second in ((s, copy), (copy, s)):
            rep, n = canonicalize(first)
            calls = spy(monkeypatch)
            rep_2, n_2 = canonicalize(second)
            monkeypatch.undo()
            assert calls == []
            assert rep_2 == rep and rep_2._form is None
            assert n_2 == n + (-m if first is s else m)
            assert rep.entries == binomial_shift(first.entries, n)


def test_one_form_at_two_orders_shares_nothing(monkeypatch):
    p = gen_presentation(1, 2, 3)
    s = gamma_seq(p, 600)
    calls = spy(monkeypatch)
    longer = gamma_seq(p, 601)
    assert calls == ["quotient"]
    assert longer.entries[:601] == s.entries
    calls.clear()
    assert series_expand_at_one(h_closed_form(p), 600).coeffs == s.entries
    assert series_expand_at_one(h_closed_form(p), 599).coeffs == s.entries[:600]
    assert calls == ["quotient"]


def test_at_most_two_expansions_are_kept():
    keys = []
    for seed in range(20):
        s = gamma_seq(gen_presentation(seed, 2, 3), 100)
        num, den, _ = s._form
        keys.append((100, 0, Poly(num).coeffs, Poly(den).coeffs))
        assert len(exactnum._expansions) == min(seed + 1, 2)
    assert exactnum._EXPANSIONS_KEPT == 2
    assert [key for key, _ in exactnum._expansions] == keys[:-3:-1]


ZERO_H = SeifertPresentation(2, gen_presentation(0, 2, 3).seifert_matrix, (1, 2, 0, -1),
                             (0, 0, 0, 0), 0)


def results(p, order, ns):
    # gamma_seq, the expansion of h and shifts of the sequence
    s = gamma_seq(p, order)
    expansion = series_expand_at_one(h_closed_form(p), order).coeffs
    return s.entries, expansion, [apply_shift(s, n).entries for n in ns]


def warm(p, order, ns, m):
    # the same results, each asked for right after an equivalent sequence,
    # a copy T^m s that kept s's form, put its expansion in the memo
    s = gamma_seq(p, order)
    expansion = series_expand_at_one(h_closed_form(p), order).coeffs
    copy = GammaSeq(binomial_shift(s.entries, m))
    are_equivalent(s, copy)  # an equivalent verdict leaves copy keeping s's form
    shifts = []
    for n in ns:
        apply_shift(copy, n - m)  # T^n s, kept under copy's key if it has one
        shifts.append(apply_shift(s, n).entries)
    return s.entries, expansion, shifts


@st.composite
def cases(draw):
    # (presentation, order, shift counts, copy exponent) at genus 1-8 on
    # both sides of gamma_seq's switch, with the fixtures of note
    p = draw(st.one_of(
        st.builds(gen_presentation, st.integers(0, 10**6), st.integers(1, 8), st.just(3)),
        st.sampled_from([POWERS_OF_TWO, ZERO_H, gen_presentation(1, 3, 3)])))
    order = draw(st.one_of(st.just(0), st.integers(0, 300)))
    reach = 4 * order + 5  # past the shift's switch to the binomial sum
    ns = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=3))
    return p, order, ns, draw(st.integers(-order - 5, order + 5))


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=(POWERS_OF_TWO, 60, [-245, 3, 0], 11))  # h reduces: its x-form misses
@example(case=(gen_presentation(1, 3, 3), 120, [485, -40], -90))  # den(1) = -1
@example(case=(ZERO_H, 100, [7], 3))  # h = 0
@example(case=(gen_presentation(4, 8, 3), 0, [5, -5], 0))  # order 0
def test_results_do_not_depend_on_the_memo(case):
    p, order, ns, m = case
    exactnum._expansions = ()  # the fixture runs once, not per example
    cold = results(p, order, ns)
    entries, expansion, shifts = cold
    assert expansion == entries
    assert shifts == [binomial_shift(entries, n) for n in ns]
    exactnum._expansions = ()
    assert warm(p, order, ns, m) == cold
    assert results(p, order, ns) == cold  # warmed by the same sequence


def test_the_powers_of_two_h_reduces_and_misses():
    s = gamma_seq(POWERS_OF_TWO, 60)
    assert s._form is not None
    h = h_closed_form(POWERS_OF_TWO)
    assert (h.num, h.den) == (Poly((-2, 1)), Poly((-3, 2)))
    powers = (1,) + tuple(2**k for k in range(60))
    assert series_expand_at_one(h, 60).coeffs == s.entries == powers
    assert len(exactnum._expansions) == 2  # two keys: no hit
    assert series_expand_at_one(RatFn(Poly(())), 0).coeffs == (0,)


def test_concurrent_calls_agree_with_serial_ones():
    presentations = [gen_presentation(seed, genus, 3) for seed, genus in
                     ((1, 3), (2, 2), (5, 4), (3, 1))]
    order, ns = 300, (-301, -17, 0, 40, 1205)

    def compute(ps):
        out = {}
        for p in ps:
            out[p] = results(p, order, ns)
            out[p, "copy"] = [apply_shift(copies[p], n).entries for n in ns]
        return out

    serial = {p: results(p, order, ns) for p in presentations}
    # one form-free copy per presentation, shared, so threads may keep
    # forms on it at once
    copies = {p: GammaSeq(serial[p][0]) for p in presentations}
    for p in presentations:
        serial[p, "copy"] = serial[p][2]
    exactnum._expansions = ()
    got, errors = [], []
    start = threading.Barrier(4)

    def worker(i):
        try:
            start.wait()
            for r in range(3):
                got.append(compute(presentations[i + r:] + presentations[: i + r]))
        except Exception as exc:  # reported below, with the thread's results
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 12 and all(g == serial for g in got)

import linecache
import math
import random
import sys
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgamma.exactnum import Poly, RatFn, Series, series_compose, series_expand_at_one
from linkgamma.gamma import (
    GammaSeq,
    SeifertPresentation,
    derivative_class,
    gamma_k,
    gamma_seq,
    gen_presentation,
    prepare,
)
from linkgamma.polylin import charpoly, det, identity, mat_mul, transpose
from linkgamma import exactnum, transforms
from linkgamma.equivalence import are_equivalent, canonicalize
from linkgamma.exactnum import _STEPS_PER_PRODUCT
from linkgamma.transforms import (
    _MISS_SHARE,
    _carried_cost,
    apply_shift,
    beta_from_gamma,
    mixed_gamma0,
    swap_seq,
)

MOBIUS = Series((0,) + (-1, 1) * 8)
# the powers-of-two fixture: h = (1 - x)/(1 - 2x), gamma = 1, 1, 2, 4, 8, ...
POWERS_OF_TWO = SeifertPresentation(1, ((0, 2), (1, 0)), (1, 0), (0, 1), 1)


def rand_seq(rng, order):
    return GammaSeq(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


# ---------------------------------------------------------------- apply_shift


def test_shift_collapses_alternating_sequence():
    assert apply_shift(GammaSeq((1, -1, 1, -1)), 1) == GammaSeq((1, 0, 0, 0))


def test_shift_zero_is_identity():
    s = GammaSeq((3, 1, 4, 1, 5))
    assert apply_shift(s, 0) == s


def test_negative_shift_recurrence():
    assert apply_shift(GammaSeq((1, 0, 0, 0)), -1) == GammaSeq((1, -1, 1, -1))


def test_shift_preserves_order_and_inverts():
    rng = random.Random(101)
    for _ in range(60):
        s = rand_seq(rng, rng.randint(0, 16))
        for n in range(-8, 9):
            shifted = apply_shift(s, n)
            assert shifted.order == s.order
            assert apply_shift(shifted, -n) == s


def binom(n, j):
    # generalized binomial coefficient, also for negative n
    return math.comb(n, j) if n >= 0 else (-1) ** j * math.comb(j - n - 1, j)


def test_binomial_rows_match_comb():
    # rows that end within the size are built to the middle and mirrored
    for n in range(-60, 61):
        for size in range(1, 131):
            assert transforms._binomials(n, size) == [binom(n, j) if n < 0 or j <= n else 0
                                                      for j in range(size)]


def steps_switch(p, order, sign):
    # the largest |e| of this sign for which _times_binomial takes |e| steps
    # through the order, against |p| products per term of the row
    def row(e):
        return order + 1 if e < 0 else min(order, e) + 1

    return max(a for a in range(_STEPS_PER_PRODUCT * len(p) + 1)
               if a * (order + 1) <= _STEPS_PER_PRODUCT * len(p) * row(sign * a))


@settings(deadline=None)
@given(p=st.lists(st.integers(-2**300, 2**300), min_size=1, max_size=40),
       data=st.data(), order=st.integers(0, 120))
@example(p=[1, 2, 3], data=None, order=1)  # p longer than the truncation
def test_a_short_numerator_times_a_negative_power_matches_the_row(p, data, order):
    # (1+x)^e p, taken as |e| forward or inverse steps on p padded to the
    # order or as the product with the binomial row, for a short p or a
    # whole sequence, e of both signs, at the switch and either side of it
    es = [-9]
    if data:
        if data.draw(st.booleans()):
            p = (p * (order + 1))[: order + 1]
        es = [data.draw(st.integers(-5 * len(p), 5 * len(p)))]
    for sign in (1, -1):
        edge = steps_switch(p, order, sign)
        es += [sign * a for a in (edge - 1, edge, edge + 1) if a >= 0]
    for e in es:
        row = exactnum._product(p, exactnum._binomials(e, order + 1), order)
        assert exactnum._times_binomial(p, e, order) == row


def binomial_shift(e, n):
    # T^n multiplies the generating function by (1+x)^n
    row = [binom(n, j) for j in range(len(e))]
    return tuple(sum(row[j] * e[k - j] for j in range(k + 1)) for k in range(len(e)))


def sequences(max_order):
    return st.lists(st.integers(), min_size=1, max_size=max_order + 1).map(
        lambda e: GammaSeq(tuple(e))
    )


@given(s=sequences(40), n=st.integers(-40, 40))
@example(s=GammaSeq((1,)), n=-1)
@example(s=GammaSeq((2, -3)), n=2)
@example(s=GammaSeq(tuple(range(40, -1, -1))), n=-40)
@example(s=GammaSeq(tuple(range(-19, 21))), n=39)
def test_shift_matches_closed_binomial_formula(s, n):
    assert apply_shift(s, n).entries == binomial_shift(s.entries, n)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 30])
def test_shift_step_and_binomial_paths_meet_at_the_threshold(order):
    # |n| up to the edge takes the steps, beyond it the binomial sum
    s = rand_seq(random.Random(order), order)
    edge = _STEPS_PER_PRODUCT * (order + 1)
    for n in (edge - 1, edge, edge + 1, edge + 2, 10**12 + 7):
        for signed in (n, -n):
            assert apply_shift(s, signed).entries == binomial_shift(s.entries, signed)


def singular_presentation(seed, genus):
    # det V = 0, so B = A^-1 V is singular and the last coefficient of its
    # characteristic polynomial, the recurrence's last, is 0: V is block
    # diagonal with blocks [[a, 1], [0, 0]] (V - V^T symplectic), then
    # congruent by shears, which keeps det(V - V^T) = 1 and det V = 0
    rng = random.Random(seed)
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for b in range(0, n, 2):
        v[b][b], v[b][b + 1] = rng.randint(-3, 3), 1
    for _ in range(n):
        r, c = rng.sample(range(n), 2)
        shear = [list(row) for row in identity(n)]
        shear[r][c] = rng.choice((-1, 1))
        v = mat_mul(transpose(shear), mat_mul(v, shear))
    assert det(v) == 0
    vec = [rng.randint(-3, 3) for _ in range(n)]
    return SeifertPresentation(genus, v, vec, vec[::-1], rng.randint(-3, 3))


@st.composite
def long_shifts(draw):
    # (s, n): gamma sequences and their copies T^m s, whose own form grows
    # with m, shifted back near -m as often as anywhere; sequences with no
    # short form; zero and leading-zero ones.  n falls on both sides of the
    # switch to a short form search (6L + 15 < |n|, L >= 1), of the cap
    # order + 4 on its length, and of the switch from the steps to the
    # binomial sum, and far past the order
    order = draw(st.integers(60, 300))
    edge = _STEPS_PER_PRODUCT * (order + 1)
    n = draw(st.one_of(
        st.sampled_from([0, 1, 10, 11, 21, 22, 23, order + 3, order + 4, order + 5,
                         edge, edge + 1, 10**12 + 7]),
        st.integers(0, 2 * order + 10),
    )) * draw(st.sampled_from([1, -1]))
    kinds = ["gamma", "copy", "copy", "singular", "random", "zero", "leading-zero"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        bits = draw(st.integers(1, 200))
        entries = draw(st.lists(st.integers(-2**bits, 2**bits),
                                min_size=order + 1, max_size=order + 1))
        return GammaSeq(tuple(entries)), n
    if kind == "zero":
        return GammaSeq((0,) * (order + 1)), n
    genus = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10**6))
    if kind == "singular":
        return gamma_seq(singular_presentation(seed, genus), order), n
    s = gamma_seq(gen_presentation(seed, genus, 3), order)
    if kind == "leading-zero":
        zeros = draw(st.integers(1, 20))
        return GammaSeq(((0,) * zeros + s.entries)[: order + 1]), n
    if kind == "copy":
        m = draw(st.one_of(st.integers(0, 20), st.integers(order // 3, order + 20)))
        if draw(st.booleans()):
            n = draw(st.integers(-m - 12, -m + 12))
        return GammaSeq(binomial_shift(s.entries, m)), n
    return s, n


def test_shift_takes_each_route(monkeypatch):
    # records which search found a form, "tail" for the one on the input's
    # last entries and "result" for the one on the result's leading
    # entries, None for searches that found none, and "sum" for the
    # binomial row's product with the entries, which _times_binomial takes
    # through exactnum's namespace
    routes = []

    def recording(s, n, limit):
        form = short_form(s, n, limit)
        if form is None:
            routes.append(None)
        return form

    def searching(head, first, e, s, limit):
        for form in form_search(head, first, e, s, limit):
            if form:
                routes.append("result")
            yield form

    def tailing(s, limit):
        for form in tail_search(s, limit):
            if form:
                routes.append("tail")
            yield form

    def product(a, b, order):
        if a is fresh.entries:
            routes.append("sum")
        return product_(a, b, order)

    short_form, form_search = transforms._short_form, transforms._form_search
    tail_search, product_ = transforms._tail_search, exactnum._product
    monkeypatch.setattr(transforms, "_short_form", recording)
    monkeypatch.setattr(transforms, "_form_search", searching)
    monkeypatch.setattr(transforms, "_tail_search", tailing)
    monkeypatch.setattr(exactnum, "_product", product)
    # without the form gamma_seq attaches, which would take the place of the search
    s = GammaSeq(gamma_seq(gen_presentation(3, 2, 3), 300).entries)
    copy = GammaSeq(binomial_shift(s.entries, 200))
    edge_copy = GammaSeq(binomial_shift(s.entries, 297))  # its form fills the truncation
    long_den = GammaSeq(binomial_shift(s.entries, -100))  # its denominator has 105 terms
    noise = rand_seq(random.Random(3), 300)
    cases = [
        (s, 200, ["tail"]),
        (s, -200, ["tail"]),
        (copy, -200, ["tail"]),
        (copy, -197, ["tail"]),
        (copy, -100, ["tail"]),  # input and result both have numerators of 100 terms or more
        (edge_copy, -300, ["result"]),
        (long_den, 100, ["result"]),
        (s, 30, [None]),  # a search too short for s's form of 5 terms
        (noise, 60, [None]),  # a miss, then the steps
        (noise, -1204, [None]),  # the steps up to 4 (order + 1)
        (noise, 1205, [None, "sum"]),
        (noise, -(10**12 + 7), [None, "sum"]),
        (s, 21, []),  # no search pays: the steps
    ]
    for seq, n, found in cases:
        fresh = GammaSeq(seq.entries)  # form-free on each call, as a file reads
        routes.clear()
        assert apply_shift(fresh, n).entries == binomial_shift(seq.entries, n)
        assert routes == found
        # the copy keeps a form its search found, and a second shift reads it
        kept = "tail" in found or "result" in found
        assert (fresh._form is not None) == kept
        routes.clear()
        assert apply_shift(fresh, n).entries == binomial_shift(seq.entries, n)
        assert routes == ([] if kept else found)


def test_a_miss_costs_a_small_share_of_the_fallback(monkeypatch):
    # the search goes as far as a form beats the fallback and a miss costs
    # at most 1/64 of it, counted per entry as |n| for the steps and
    # order + 4 for the binomial sum; order-30 shifts, those of `equiv` on
    # small files, never search
    limits = []

    class Searched(Exception):
        pass

    def recording(s, n, limit):
        limits.append(limit)
        raise Searched  # the fallback is not under test

    monkeypatch.setattr(transforms, "_short_form", recording)
    for order in (30, 300, 1000):
        s = rand_seq(random.Random(order), order)
        for n in (11, 21, 22, 60, 100, 500, order + 4, 4 * order + 1, 10**12 + 7):
            for signed in (n, -n):
                limits.clear()
                try:
                    apply_shift(s, signed)
                except Searched:
                    pass
                per_entry = min(n, order + 4)
                affords = [L for L in range(1, order)
                           if 6 * L + 15 < per_entry
                           and 6 * (L + 1) ** 2 * _MISS_SHARE <= (order + 1) * per_entry]
                assert limits == affords[-1:]
                assert order > 30 or limits == []


def test_short_form_divides_out_powers_of_one_plus_x():
    # T^-80 s: its denominator C (1+x)^80 has coefficients far above 2^61,
    # so the lift divides 1 + x out of the proposal mod p.  apply_shift
    # searches this far only from order 1683 on, so the limit is given
    s = gamma_seq(gen_presentation(3, 2, 3), 600)
    copy = GammaSeq(binomial_shift(s.entries, 500))
    num, den, e = transforms._short_form(copy, -580, 100)
    assert (len(den), e) == (5, 500)
    assert exactnum._expand(num, den, e - 580, 600) == list(binomial_shift(copy.entries, -580))


def stepped(entries, n):
    # |n| plain steps of T or T^-1, the oracle for order-1000 shifts
    e = list(entries)
    for _ in range(abs(n)):
        if n > 0:
            e = e[:1] + [a + b for a, b in zip(e[1:], e)]
        else:
            for k in range(1, len(e)):
                e[k] -= e[k - 1]
    return tuple(e)


def test_a_leading_zero_pays_no_check_of_the_zero_form(monkeypatch):
    # lk23 = 0 makes entry 0 zero, where the recurrence of length 0 holds
    # and proposes the zero form; a sequence that goes on past that 0 is no
    # sequence of zeros, so the form is not checked through the order
    checks = []

    def recording(num, den, e, s, upto):
        checks.append((list(num), upto))
        return mismatch(num, den, e, s, upto)

    mismatch = transforms._mismatch
    monkeypatch.setattr(transforms, "_mismatch", recording)
    p = gen_presentation(20, 3, 3)
    pres = SeifertPresentation(3, p.seifert_matrix, p.v2, p.v3, 0)
    entries = gamma_seq(pres, 1000).entries
    assert entries[0] == 0 and entries[1] != 0
    for n in (-22, -31, 22, 31, 60):
        checks.clear()
        s = GammaSeq(entries)  # form-free on each call, so the shift searches
        assert apply_shift(s, n).entries == stepped(entries, n)
        assert [upto for num, upto in checks if not num] == []
    # the swap's search on the leading entries checks its form, and the spy
    # sees that check
    checks.clear()
    assert swap_seq(GammaSeq(entries)).entries == pascal_swap(entries)
    assert checks and [upto for num, upto in checks if not num] == []


@contextmanager
def lines_run(func):
    # the stripped source lines of func, in the order its frames run them,
    # generator frames resumed included
    ran, code = [], func.__code__

    def line(frame, event, arg):
        if event == "line":
            ran.append(linecache.getline(code.co_filename, frame.f_lineno).strip())
        return line

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is code else None)
    try:
        yield ran
    finally:
        sys.settrace(old)


def ran_in_turn(ran, *lines):
    return any(tuple(ran[i : i + len(lines)]) == lines for i in range(len(ran)))


@pytest.mark.parametrize("ones, branch", [
    # the proposal 1 - x holds on the 5 ones but fails 4 entries on, within
    # the limit of 11: rejected, and the search reads on
    (5, ("need, rejected = j + 1 - start, c",)),
    # it fails 14 entries on, farther than the limit: the search gives up
    (14, ("if j + 1 - held > limit:", "return")),
    # it holds through the order, and the noise before it leaves d no
    # numerator of at most `terms` terms
    (24, ("for r in range(terms):", "return")),
])
def test_tail_search_exits(ones, branch):
    # order 300 and n = 200 give a limit of 11, so the tail search reads the
    # last 24 entries, here `ones` ones after noise
    order, n = 300, 200
    start = order - 23
    noise = rand_seq(random.Random(1), order).entries
    s = GammaSeq(noise[:start] + (1,) * ones + noise[start + ones :])
    with lines_run(transforms._tail_search) as ran:
        shifted = apply_shift(s, n)
    assert ran_in_turn(ran, *branch)
    assert shifted.entries == stepped(s.entries, n)


@pytest.mark.parametrize("order", [0, 1, 2, 30, 300, 1000])
def test_zeros_shift_and_swap_to_zeros(order):
    zeros = GammaSeq((0,) * (order + 1))
    for n in (1, 22, 31, 200, _STEPS_PER_PRODUCT * (order + 1) + 1, 10**12 + 7):
        for signed in (n, -n):
            assert apply_shift(zeros, signed) == zeros
    assert swap_seq(zeros) == zeros


def test_zeros_shift_without_a_binomial_row_through_the_order(monkeypatch):
    # a sequence of zeros is its own shift: no search, and no binomial row,
    # where a nonzero one takes the row's product past 4 (order + 1) steps
    sizes = []
    binomials = exactnum._binomials
    for namespace in (exactnum, transforms):  # the shift's product, the search's row
        monkeypatch.setattr(namespace, "_binomials",
                            lambda n, size: sizes.append(size) or binomials(n, size))
    assert apply_shift(GammaSeq((1, 2, 3)), 5000).entries == binomial_shift((1, 2, 3), 5000)
    assert sizes == [3]
    sizes.clear()
    zeros = GammaSeq((0,) * 3001)
    for n in (5000, -15000):
        assert apply_shift(zeros, n) == zeros
    assert sizes == []


def scaled_gamma_seq(seed, genus, factor, order):
    # lk23 = 1 and v3 scaled: s[0] = 1, so the canonical exponent is -s[1],
    # which grows with the factor
    p = gen_presentation(seed, genus, 3)
    v3 = [factor * e for e in p.v3]
    return gamma_seq(SeifertPresentation(genus, p.seifert_matrix, p.v2, v3, 1), order)


@st.composite
def form_free_copies(draw):
    # (copy, n): copies T^m s of gamma sequences, built without apply_shift
    # and so carrying no form, whose canonical exponents relative to s
    # often lie beyond +-40, where both the copy and its canonical form have
    # numerators too long for a search on leading entries; or the same
    # copies with +-1 added to every entry, which have no short form
    genus = draw(st.integers(1, 4))
    s = scaled_gamma_seq(draw(st.integers(0, 10**6)), genus, draw(st.integers(1, 12)), 300)
    entries = binomial_shift(s.entries, draw(st.integers(-300, 300)))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**6)))
        entries = tuple(e + rng.choice((-1, 1)) for e in entries)
    return GammaSeq(entries), draw(st.integers(-400, 400))


@settings(max_examples=40, deadline=None)
@given(case=form_free_copies())
def test_form_free_copies_shift_and_canonicalize_as_the_steps(case):
    copy, n = case
    assert apply_shift(copy, n).entries == binomial_shift(copy.entries, n)
    # through a form the shift kept, if it found one, and on a fresh copy
    rep, c = canonicalize(copy)
    assert rep.entries == binomial_shift(copy.entries, c)
    assert canonicalize(GammaSeq(copy.entries)) == (rep, c)
    k = next((i for i, e in enumerate(copy.entries) if e), copy.order)
    assert k == copy.order or 0 <= rep.entries[k + 1] < abs(copy.entries[k])


def test_canonicalize_finds_forms_far_from_both_ends(monkeypatch):
    # canonicalize(T^m s) at T^270 s: the copy and the result both have
    # numerators of more than 40 terms, so only the search on the copy's
    # last entries finds a form
    found = []

    def recording(s, n, limit):
        form = short_form(s, n, limit)
        found.append(form is not None)
        return form

    short_form = transforms._short_form
    monkeypatch.setattr(transforms, "_short_form", recording)
    s = scaled_gamma_seq(1, 2, 30, 300)
    for m in (50, 100):
        found.clear()
        rep, c = canonicalize(GammaSeq(binomial_shift(s.entries, m)))
        assert (c + m, rep.entries) == (270, binomial_shift(s.entries, 270))
        assert found == [True]


@settings(max_examples=100, deadline=None)
@given(case=long_shifts())
@example(case=(GammaSeq(binomial_shift(gamma_seq(gen_presentation(5, 4, 3), 200).entries, 198)),
               -201))  # a copy whose form fills the truncation, shifted back past it
def test_long_shift_matches_closed_binomial_formula(case):
    s, n = case
    assert apply_shift(s, n).entries == binomial_shift(s.entries, n)


# ------------------------------------------------------------------- swap_seq


def test_swap_examples():
    assert swap_seq(GammaSeq((0, 1, 0, 0))) == GammaSeq((0, -1, 1, -1))
    assert swap_seq(GammaSeq((9, 0, 0, 0))) == GammaSeq((9, 0, 0, 0))
    s = GammaSeq((1, 1, 2, 4, 8))
    assert swap_seq(s) == GammaSeq((1, -1, 3, -9, 27))
    assert swap_seq(swap_seq(s)) == s


def test_swap_is_involution():
    rng = random.Random(103)
    for _ in range(200):
        s = rand_seq(rng, 16)
        assert swap_seq(swap_seq(s)) == s


def test_swap_matches_generating_function_substitution():
    # independent route: compose the tail with the expansion of -x/(1+x)
    rng = random.Random(107)
    for _ in range(60):
        s = rand_seq(rng, 16)
        tail = Series((0,) + s.entries[1:])
        swapped = swap_seq(s)
        assert series_compose(tail, MOBIUS, 16) == Series((0,) + swapped.entries[1:])


def pascal_swap(e):
    # the forward-sum table: entry k is (-1)^k times the head of the row
    # that k - 1 rounds of Pascal's rule leave of e[1:]
    out, row = [e[0]], list(e[1:])
    while row:
        out.append(row[0])
        row = [a + b for a, b in zip(row, row[1:])]
    return tuple(-v if k % 2 else v for k, v in enumerate(out))


@st.composite
def long_swaps(draw):
    # gamma sequences and copies T^m s at orders on both sides of the search
    # budget (a form of 1 term is sought from order 55, L = 3 from 111 and
    # L = 9 from 277), copies with factors 1 + x in C (m < 0) or a long P
    # (m > 0), sequences with no short form, zero and leading-zero ones
    order = draw(st.one_of(st.integers(55, 400), st.sampled_from([54, 55, 110, 111, 276, 277]),
                           st.integers(900, 1000)))
    kinds = ["gamma", "copy", "copy", "singular", "random", "zero", "leading-zero"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        bits = draw(st.integers(1, 200))
        entries = draw(st.lists(st.integers(-2**bits, 2**bits),
                                min_size=order + 1, max_size=order + 1))
        return GammaSeq(tuple(entries))
    if kind == "zero":
        return GammaSeq((0,) * (order + 1))
    genus = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10**6))
    if kind == "singular":
        return gamma_seq(singular_presentation(seed, genus), order)
    s = gamma_seq(gen_presentation(seed, genus, 3), order)
    if kind == "leading-zero":
        zeros = draw(st.integers(1, 20))
        return GammaSeq(((0,) * zeros + s.entries)[: order + 1])
    if kind == "copy":
        m = draw(st.one_of(st.integers(-order, order + 20), st.integers(-12, 12)))
        return apply_shift(s, m)
    return s


@settings(max_examples=60, deadline=None)
@given(s=long_swaps())
@example(s=apply_shift(gamma_seq(gen_presentation(1, 1, 3), 300), -3))  # f = -3
@example(s=gamma_seq(singular_presentation(2, 2), 300))
@example(s=GammaSeq(tuple(2**k for k in range(301))))  # 1/(1 - 2x): deg C > deg P
def test_long_swap_matches_pascal_table(s):
    assert swap_seq(s).entries == pascal_swap(s.entries)


def test_swap_takes_each_route(monkeypatch):
    # records each search, and the exponent f of each form (1+x)^f P/C found
    routes = []

    def searching(head, first, e, s, limit):
        routes.append("search")
        for form in form_search(head, first, e, s, limit):
            if form:
                routes.append(form[2])
            yield form

    form_search = transforms._form_search
    monkeypatch.setattr(transforms, "_form_search", searching)
    genus_1 = gamma_seq(gen_presentation(1, 1, 3), 300)  # a form of 3 terms
    genus_4 = gamma_seq(gen_presentation(0, 4, 3), 300)  # a form of 9 terms
    noise = random.Random(3)
    # each call on a form-free copy: the search
    cases = [
        (genus_4, ["search", 0]),
        (GammaSeq(genus_1.entries[:112]), ["search", 0]),  # the first order that can
        (GammaSeq(genus_1.entries[:111]), ["search"]),  # a miss, then the table
        (apply_shift(genus_1, -3), ["search", -3]),  # (1+x)^3 divided out of C
        (apply_shift(genus_1, 200), ["search"]),  # P too long: the table
        (GammaSeq(tuple(e + noise.choice((-1, 1)) for e in genus_4.entries)), ["search"]),
        (GammaSeq(genus_1.entries[:56]), ["search"]),
        (GammaSeq(genus_1.entries[:55]), []),  # no search pays below order 55
        (GammaSeq(genus_4.entries[:31]), []),
    ]
    for seq, found in cases:
        fresh = GammaSeq(seq.entries)
        routes.clear()
        assert swap_seq(fresh).entries == pascal_swap(seq.entries)
        assert routes == found
        # the copy keeps a form its search found, and a second swap reads it
        assert (fresh._form is not None) == (len(found) == 2)
        routes.clear()
        assert swap_seq(fresh).entries == pascal_swap(seq.entries)
        assert routes == ([] if len(found) == 2 else found)
    # a carried form costs 2|P| + 2|C| + 10 per entry, 22 at genus 1 and 46
    # at genus 4: below the table's (order + 1) // 2 it is reflected
    # ("form") in place of the search, and otherwise the table swaps
    reflect = transforms._reflect
    monkeypatch.setattr(transforms, "_reflect", lambda p, d: routes.append("form") or reflect(p, d))
    for seq, found in [
        (genus_4, ["form"] * 2),
        (genus_1, ["form"] * 2),
        (GammaSeq._built(genus_1.entries[:46], genus_1._form), ["form"] * 2),  # 22 < 46 // 2
        (GammaSeq._built(genus_1.entries[:45], genus_1._form), []),  # 22 = 45 // 2: the table
        (GammaSeq._built(genus_4.entries[:93], genus_4._form), []),  # 46 = 93 // 2
        (GammaSeq._built(genus_4.entries[:94], genus_4._form), ["form"] * 2),  # 46 < 94 // 2
    ]:
        routes.clear()
        assert swap_seq(seq).entries == pascal_swap(seq.entries)
        assert routes == found


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_a_carried_form_is_never_searched_past(monkeypatch, genus):
    # at orders 0 to 400, a gamma sequence's carried form and the form a
    # copy T^60 s kept from a verdict are expanded when they cost less than
    # the fallback, and otherwise the shift takes the steps and the swap
    # the table, with no search.  Entry k of either operator reads entries
    # up to k, so the form-free operators at order 400, cut, are the
    # oracles at every order
    def refuse(*args):
        raise AssertionError("searched past a carried form")

    s = gamma_seq(gen_presentation(genus, genus, 3), 400)
    copy = binomial_shift(s.entries, 60)
    cost = _carried_cost(s._form)
    ns = (cost, -cost - 1)  # |n| = cost leaves the form, and cost + 1 takes it
    lead = next(k for k, e in enumerate(s.entries) if e)
    oracles = {}
    with monkeypatch.context() as m:  # searches disabled: the steps and the table
        m.setattr(transforms, "_short_form", lambda *args: None)
        m.setattr(transforms, "_form_search", lambda *args: iter(()))
        for entries in (s.entries, copy):
            oracles[entries] = ([apply_shift(GammaSeq(entries), n).entries for n in ns],
                                swap_seq(GammaSeq(entries)).entries)
    monkeypatch.setattr(transforms, "_short_form", refuse)
    monkeypatch.setattr(transforms, "_form_search", refuse)
    for search in (lambda: apply_shift(GammaSeq(s.entries), ns[1]),
                   lambda: swap_seq(GammaSeq(s.entries))):
        with pytest.raises(AssertionError, match="searched past"):
            search()  # a form-free copy searches
    for order in range(401):
        carried = GammaSeq._built(s.entries[: order + 1], s._form)
        kept = GammaSeq(copy[: order + 1])
        are_equivalent(carried, kept)  # with no entry past the leading one, it keeps none
        assert (kept._form is None) == (order <= lead)
        for seq, entries in ((carried, s.entries), (kept, copy)):
            shifted, swapped = oracles[entries]
            for n, want in zip(ns, shifted):
                assert apply_shift(seq, n).entries == want[: order + 1]
            assert swap_seq(seq).entries == swapped[: order + 1]


def test_form_search_gives_up_on_a_far_mismatch():
    # 1 - x holds on the first 15 entries: at order 300 the swap's limit of
    # 9 cannot reach past it, so the search stops and the table swaps
    s = GammaSeq((1,) * 15 + rand_seq(random.Random(2), 285).entries)
    with lines_run(transforms._form_search) as ran:
        swapped = swap_seq(s)
    assert ran_in_turn(ran, "if j + 1 - length > limit:", "return")
    assert [swapped.entries[k] for k in range(1, 301)] == [
        mixed_gamma0(s, 0, k) for k in range(1, 301)]


def test_form_search_ends_after_its_form():
    # callers stop at the form; a caller that reads on finds the search ended
    s = GammaSeq(gamma_seq(POWERS_OF_TWO, 100).entries)
    with lines_run(transforms._form_search) as ran:
        steps = list(transforms._form_search(s.entries[:6], lambda m: s.entries[:m], 0, s, 2))
    assert ran_in_turn(ran, "yield num, den, f", "return")
    num, den, f = steps[-1]
    assert steps[:-1] == [None] * (len(steps) - 1)
    assert exactnum._expand(num, den, f, 100) == list(s.entries)


def swap_limit(order):
    # the most terms a swap at this order searches for: _take_form's limit
    # against the table's (order + 1) // 2 additions per entry
    limits = []
    transforms._take_form(GammaSeq((1,) * (order + 1)), (order + 1) // 2, limits.append)
    return max(limits, default=0)


def least_swap_order(terms):
    # the least order whose swap searches for forms of up to this many terms
    order = 1
    while swap_limit(order) < terms:
        order += 1
    return order


def swap_with_forms_found(monkeypatch, s):
    # swap_seq(s), and each form its search found
    found = []

    def searching(head, first, e, s, limit):
        for form in form_search(head, first, e, s, limit):
            if form:
                found.append(form)
            yield form

    form_search = transforms._form_search
    with monkeypatch.context() as m:
        m.setattr(transforms, "_form_search", searching)
        return swap_seq(s), found


def table_swap(monkeypatch, s):
    # the swap of a form-free copy of s with its search disabled: the
    # forward-sum table
    with monkeypatch.context() as m:
        m.setattr(transforms, "_form_search", lambda *args: iter(()))
        return swap_seq(GammaSeq(s.entries))


def unsearched_swap(monkeypatch, s):
    # swap_seq(s), failing if it runs the search
    def searching(*args):
        raise AssertionError("the swap searched")

    with monkeypatch.context() as m:
        m.setattr(transforms, "_form_search", searching)
        return swap_seq(s)


@pytest.mark.parametrize("order, forms", [
    (80, []),  # a limit of 1 term: the search misses, the table swaps
    (83, [([1, -1], [1, -2], 0)]),  # the first order with a limit of 2
    (95, [([1, -1], [1, -2], 0)]),
    (110, [([1, -1], [1, -2], 0)]),  # the last order with a limit of 2
])
def test_a_reduced_h_swaps_through_a_two_term_form(monkeypatch, order, forms):
    # h reduces to a form of 2 terms, short enough for the smallest limits
    # that search (orders 55 to 110)
    s = GammaSeq(gamma_seq(POWERS_OF_TWO, order).entries)  # without its carried form
    assert swap_limit(order) == (1 if order == 80 else 2)
    swapped, found = swap_with_forms_found(monkeypatch, s)
    assert found == forms
    assert swapped == table_swap(monkeypatch, s)


@pytest.mark.parametrize("genus", [9, 10])
def test_swap_through_forms_at_genus_nine_and_ten(monkeypatch, genus):
    order = least_swap_order(2 * genus + 1)
    assert genus != 9 or order == 554
    s = gamma_seq(gen_presentation(0, genus, 3), order)
    swapped, found = swap_with_forms_found(monkeypatch, GammaSeq(s.entries))
    assert len(found) == 1
    assert swapped == table_swap(monkeypatch, s)
    for k in (1, order // 2, order):
        assert swapped.entries[k] == mixed_gamma0(s, 0, k)
    # the carried form takes the place of the search
    assert unsearched_swap(monkeypatch, s) == swapped
    back, found = swap_with_forms_found(monkeypatch, swapped)
    assert len(found) == 1 and back == s


def test_swap_at_genus_twelve_takes_the_table(monkeypatch):
    # a coefficient of charpoly here passes the symmetric range of
    # p = 2^61 - 1 that transforms._lift assumes, so on a form-free copy the
    # one proposal fails its exact check, and the copy keeps no form
    order = least_swap_order(25)
    p = prepare(gen_presentation(0, 12, 3))
    assert max(map(abs, charpoly(p._prepared[1]))) > transforms._P // 2
    s = gamma_seq(p, order)
    plain = GammaSeq(s.entries)
    swapped, found = swap_with_forms_found(monkeypatch, plain)
    assert found == [] and plain._form is None
    assert swapped == table_swap(monkeypatch, s)
    for k in (1, order // 2, order):
        assert swapped.entries[k] == mixed_gamma0(s, 0, k)
    # the carried form is never lifted: it swaps with no search, where a
    # form-free copy searches again
    with pytest.raises(AssertionError, match="the swap searched"):
        unsearched_swap(monkeypatch, GammaSeq(s.entries))
    assert unsearched_swap(monkeypatch, s) == swapped


@given(s=sequences(60))
@example(s=GammaSeq((5,)))
@example(s=GammaSeq((5, -7)))
def test_swap_entries_match_mixed_values(s):
    swapped = swap_seq(s)
    assert swapped.order == s.order
    assert swapped.entries[0] == s.entries[0]
    for k in range(1, s.order + 1):
        assert swapped.entries[k] == mixed_gamma0(s, 0, k)


# --------------------------------------------------------------- mixed_gamma0


def test_mixed_examples():
    s = GammaSeq((5, 7, -2, 4))
    assert mixed_gamma0(s, 0, 1) == -7
    assert mixed_gamma0(GammaSeq((0, 0, 1, 0, 0)), 1, 1) == -1
    assert mixed_gamma0(GammaSeq((3, 2, 0, 0, 0)), 1, 3) == 0


def test_mixed_matches_comb_sum():
    # oracle: the defining sum with a fresh math.comb per term
    rng = random.Random(131)
    s = GammaSeq(tuple(rng.randint(-10**30, 10**30) for _ in range(161)))
    for p in range(81):
        for l in range(1, 81):
            acc = sum(math.comb(l - 1, j - 1) * s.entries[p + j] for j in range(1, l + 1))
            assert mixed_gamma0(s, p, l) == (-1) ** l * acc


def test_mixed_order_and_argument_errors():
    s = GammaSeq((0, 1, 2))
    with pytest.raises(ValueError, match="insufficient sequence order"):
        mixed_gamma0(s, 1, 2)
    with pytest.raises(ValueError):
        mixed_gamma0(s, -1, 1)
    with pytest.raises(ValueError):
        mixed_gamma0(s, 0, 0)


# the order, index and count arguments: each call takes one argument from
# the test; the presentation is invalid and the sequences too short, so only
# a check made before any other work raises "must be an integer"
INVALID = SeifertPresentation(1, ((0, 1), (1, 0)), (1, 0), (0, 1), 0)
SHORT = GammaSeq((0, 1))
INTEGER_ARGUMENTS = {
    "gamma_seq": lambda x: gamma_seq(INVALID, x),
    "gamma_k": lambda x: gamma_k(INVALID, x),
    "derivative_class": lambda x: derivative_class(INVALID, x),
    "series_expand_at_one": lambda x: series_expand_at_one(RatFn(Poly((1,)), Poly((0, 1))), x),
    "series_compose": lambda x: series_compose(Series((0,)), Series((1,)), x),
    "apply_shift": lambda x: apply_shift(SHORT, x),
    "mixed_gamma0 p": lambda x: mixed_gamma0(SHORT, x, 5),
    "mixed_gamma0 l": lambda x: mixed_gamma0(SHORT, 5, x),
    "beta_from_gamma": lambda x: beta_from_gamma(SHORT, x),
}


@pytest.mark.parametrize("value", [True, 2.5, None], ids=repr)
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_bools_and_non_ints(name, value):
    with pytest.raises(ValueError, match=rf"must be an integer, got {value!r}$"):
        INTEGER_ARGUMENTS[name](value)


# ------------------------------------------------------------ beta_from_gamma


def test_beta_examples():
    assert beta_from_gamma(GammaSeq((0, 0, 1, 0, 0)), 1) == -1
    assert beta_from_gamma(GammaSeq((0, 0, 0, 0, 0)), 2) == 0
    assert beta_from_gamma(GammaSeq((0, 0, 0, 1, 1, 0, 0)), 2) == 2


def test_beta_order_errors():
    with pytest.raises(ValueError, match="insufficient sequence order"):
        beta_from_gamma(GammaSeq((0, 1, 2)), 2)
    with pytest.raises(ValueError):
        beta_from_gamma(GammaSeq((0, 1, 2)), 0)


def test_beta_equals_diagonal_mixed_value():
    rng = random.Random(109)
    for _ in range(100):
        s = rand_seq(rng, 12)
        for k in range(1, 7):
            assert beta_from_gamma(s, k) == mixed_gamma0(s, k, k)


# ------------------------------------------------------------------ linearity


def test_every_operation_is_additive():
    rng = random.Random(113)
    for _ in range(40):
        a = rand_seq(rng, 12)
        b = rand_seq(rng, 12)
        total = GammaSeq(tuple(x + y for x, y in zip(a.entries, b.entries)))
        n = rng.randint(-6, 6)
        assert apply_shift(total, n).entries == tuple(
            x + y for x, y in zip(apply_shift(a, n).entries, apply_shift(b, n).entries)
        )
        assert swap_seq(total).entries == tuple(
            x + y for x, y in zip(swap_seq(a).entries, swap_seq(b).entries)
        )
        assert mixed_gamma0(total, 2, 3) == mixed_gamma0(a, 2, 3) + mixed_gamma0(b, 2, 3)
        assert beta_from_gamma(total, 3) == beta_from_gamma(a, 3) + beta_from_gamma(b, 3)

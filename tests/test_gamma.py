import copy
import pickle
import random
from collections import Counter
from hashlib import sha256

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkgamma import gamma
from linkgamma.exactnum import Poly, ratfn_eval, ratfn_reduce, series_expand_at_one
from linkgamma.gamma import (
    GammaSeq,
    SeifertPresentation,
    _recurrence_pays,
    derivative_class,
    gamma_k,
    gamma_seq,
    gen_presentation,
    h_closed_form,
    intersection_form,
    prepare,
    validate,
)
from linkgamma.polylin import (
    adjugate,
    bordered_det,
    det,
    identity,
    int_inverse,
    mat_mul,
    mat_vec,
    transpose,
    vec_dot,
)
from linkgamma.transforms import swap_seq

FIX = SeifertPresentation(1, ((0, 2), (1, 0)), (1, 0), (0, 1), 1)


def corpus(count, max_bound=5):
    return [
        gen_presentation(seed=i, genus=1 + i % 3, bound=1 + i % max_bound)
        for i in range(count)
    ]


# ------------------------------------------------------------------- validate


def test_validate_fixture_ok():
    assert validate(FIX) == []


def test_validate_symmetric_matrix():
    p = SeifertPresentation(1, ((0, 1), (1, 0)), (1, 0), (0, 1), 0)
    problems = validate(p)
    assert any("det(V - V^T) = 0" in msg for msg in problems)


def test_validate_odd_size():
    p = SeifertPresentation(1, ((0, 1, 0), (0, 0, 1), (1, 0, 0)), (1, 0, 0), (0, 1, 0), 0)
    problems = validate(p)
    assert any("odd size 3" in msg for msg in problems)


def test_validate_non_unit_determinant():
    p = SeifertPresentation(1, ((0, 2), (0, 0)), (1, 0), (0, 1), 0)
    problems = validate(p)
    assert any("det(V - V^T) = 4" in msg for msg in problems)


def test_validate_ragged_matrix_names_the_row():
    p = SeifertPresentation(1, ((0, 1), (0,)), (1, 0), (0, 1), 0)
    assert validate(p) == ["seifert_matrix must be square: row 1 has length 1, expected 2"]
    p = SeifertPresentation(1, ((0, 1, 0), (0, 0, 0)), (1, 0), (0, 1), 0)
    assert validate(p) == ["seifert_matrix must be square: row 0 has length 3, expected 2"]


def test_validate_vector_lengths_and_genus():
    p = SeifertPresentation(2, ((0, 2), (1, 0)), (1,), (0, 1, 2), 0)
    problems = validate(p)
    assert any("v2" in msg for msg in problems)
    assert any("v3" in msg for msg in problems)
    assert any("genus" in msg for msg in problems)


def test_validate_rejects_a_bool_genus():
    p = SeifertPresentation(True, ((0, 2), (1, 0)), (1, 0), (0, 1), 1)
    assert validate(p) == ["genus must be a positive integer, got True"]
    with pytest.raises(ValueError, match="genus must be a positive integer, got True"):
        gamma_seq(p, 3)


@pytest.mark.parametrize(
    "args, problems",
    [
        ((1, (), (), (), 0), ["seifert_matrix must be square, got shape 0x0"]),
        ((1, ((0, 2.0), (1, 0)), (1, 0), (0, 1), 1), ["seifert_matrix entries must be integers"]),
        ((1, ((0, 2), (1, 0)), (1, "0"), (0, 1.5), 1),
         ["v2 entries must be integers", "v3 entries must be integers"]),
        ((1, ((0, 2), (1, 0)), (1, 0), (0, True), 1), ["v3 entries must be integers"]),
        ((1, ((0, 2), (1, 0)), (1, 0), (0, 1), 1.0), ["lk23 must be an integer"]),
        ((1, ((0, 2), (1, 0)), (1, 0), (0, 1), False), ["lk23 must be an integer"]),
    ],
    ids=["empty-matrix", "float-entry", "v2-and-v3-entries", "bool-v3-entry", "float-lk23",
         "bool-lk23"],
)
def test_validate_names_each_non_integer_field(args, problems):
    p = SeifertPresentation(*args)
    assert validate(p) == problems
    with pytest.raises(ValueError, match="invalid presentation: " + problems[0]):
        prepare(p)


def test_operations_reject_invalid_presentation():
    bad = SeifertPresentation(1, ((0, 1), (1, 0)), (1, 0), (0, 1), 0)
    for op in (
        lambda: gamma_k(bad, 1),
        lambda: gamma_seq(bad, 3),
        lambda: h_closed_form(bad),
        lambda: derivative_class(bad, 1),
        lambda: prepare(bad),
    ):
        with pytest.raises(ValueError, match="invalid presentation"):
            op()


# ----------------------------------------------------------- derivative_class


def test_derivative_class_fixture():
    assert derivative_class(FIX, 1) == (2, 0)
    assert derivative_class(FIX, 3) == (8, 0)


def test_derivative_class_zero_vector():
    p = SeifertPresentation(1, ((0, 1), (0, 0)), (0, 0), (1, 1), 3)
    for k in (1, 2, 5):
        assert derivative_class(p, k) == (0, 0)


def test_derivative_class_requires_positive_k():
    with pytest.raises(ValueError):
        derivative_class(FIX, 0)


# -------------------------------------------------------------------- gamma_k


def test_gamma_k_fixture_values():
    assert gamma_k(FIX, 0) == 1
    assert gamma_k(FIX, 5) == 16
    swapped = SeifertPresentation(1, ((0, 2), (1, 0)), (0, 1), (1, 0), 1)
    assert gamma_k(swapped, 1) == -1


def test_gamma_seq_fixture():
    assert gamma_seq(FIX, 5).entries == (1, 1, 2, 4, 8, 16)


def test_gamma_seq_zero_v2():
    p = SeifertPresentation(1, ((0, 1), (0, 0)), (0, 0), (1, 1), 7)
    assert gamma_seq(p, 3).entries == (7, 0, 0, 0)


def test_gamma_seq_matches_gamma_k_pointwise():
    for p in corpus(6):
        seq = gamma_seq(p, 9)
        for k in range(10):
            assert seq.entries[k] == gamma_k(p, k)


def recurrence_orders(n):
    # the last order the vector recursion covers alone, and the first the
    # characteristic-polynomial recurrence continues
    last_vector = next(order for order in range(n, 10 * n * n) if _recurrence_pays(n, order + 1))
    assert not _recurrence_pays(n, last_vector) and _recurrence_pays(n, last_vector + 1)
    return (n - 1, n, n + 1, last_vector, last_vector + 1, 4 * n + 5)


def test_recurrence_switch_keeps_short_sequences_on_the_vector_recursion():
    # the order-(4g + 2) sequences of h's expansion check at genus 1-5 are
    # too short to repay the characteristic polynomial; order 1000 is not
    for genus in range(1, 6):
        assert not _recurrence_pays(2 * genus, 4 * genus + 2)
    for genus in range(1, 9):
        assert _recurrence_pays(2 * genus, 1000)


def test_recurrence_switch_orders_are_pinned():
    # the first order on the characteristic-polynomial recurrence at genus
    # 1-8; gamma_seq carries the recurrence's form from exactly that order
    for genus, first in enumerate((7, 12, 19, 28, 39, 52, 67, 84), 1):
        n = 2 * genus
        assert not any(_recurrence_pays(n, order) for order in range(first))
        assert _recurrence_pays(n, first)
        p = gen_presentation(genus, genus, 3)
        assert gamma_seq(p, first - 1)._form is None
        assert gamma_seq(p, first)._form is not None


def vector_recursion(p, order):
    # gamma_0..gamma_order read off one pass of u_k = B^(k-1) A^-1 v2,
    # checked against gamma_k at the last entry
    a_inv, b = prepare(p)._prepared
    u = mat_vec(a_inv, p.v2)
    entries = [p.lk23]
    for _ in range(order):
        entries.append(vec_dot(u, p.v3))
        u = mat_vec(b, u)
    assert entries[-1] == gamma_k(p, order)
    return tuple(entries)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), genus=st.integers(1, 12), pick=st.integers(0, 5))
@example(seed=0, genus=12, pick=4)
def test_gamma_seq_recurrence_matches_vector_recursion(seed, genus, pick):
    p = gen_presentation(seed, genus, 3)
    order = recurrence_orders(2 * genus)[pick]
    assert gamma_seq(p, order).entries == vector_recursion(p, order)


def test_gamma_seq_long_recurrence_matches_vector_recursion():
    for genus in (1, 2, 3, 4):
        p = gen_presentation(genus, genus, 5)
        seq = gamma_seq(p, 300)
        assert seq.entries[-3:] == tuple(gamma_k(p, k) for k in (298, 299, 300))


def fresh(p):
    return SeifertPresentation(p.genus, p.seifert_matrix, p.v2, p.v3, p.lk23, p.name)


def count_gamma_calls(monkeypatch, *names):
    # calls through gamma's own bindings, which its functions look up at call time
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _func=getattr(gamma, name)):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(gamma, name, counted)
    return calls


def test_prepare_returns_the_presentation_keeping_a_inv_and_b():
    for p in corpus(6):
        assert prepare(p) is p and prepare(p) is p
        a_inv = int_inverse(intersection_form(p))
        assert p._prepared == (a_inv, mat_mul(a_inv, p.seifert_matrix))
        q = fresh(p)
        assert gamma_seq(p, 12) == gamma_seq(q, 12)
        assert gamma_k(p, 7) == gamma_k(q, 7)
        assert derivative_class(p, 3) == derivative_class(q, 3)
        assert validate(p) == []


def test_a_prepared_presentation_is_neither_checked_nor_inverted_again(monkeypatch):
    presentations = [gen_presentation(seed, genus, 3) for genus in range(1, 5) for seed in range(3)]
    fresh_ones = [fresh(p) for p in presentations]
    expected = [(h_closed_form(q), gamma_seq(q, 40), gamma_k(q, 5), derivative_class(q, 2))
                for q in fresh_ones]
    for p in presentations:
        prepare(p)
    calls = count_gamma_calls(monkeypatch, "validate", "int_inverse", "det")
    got = [(h_closed_form(p), gamma_seq(p, 40), gamma_k(p, 5), derivative_class(p, 2))
           for p in presentations]
    assert got == expected
    assert calls == Counter()


def test_a_one_shot_h_runs_one_det_and_never_inverts(monkeypatch):
    p = gen_presentation(4, 4, 3)
    expected = h_closed_form(fresh(p))
    calls = count_gamma_calls(monkeypatch, "validate", "int_inverse", "det")
    assert h_closed_form(p) == expected
    assert calls == Counter(validate=1, det=1)
    assert p._prepared is None


def test_a_prepared_presentation_is_the_same_value():
    for p in corpus(6):
        q = fresh(p)
        prepare(p)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        for copied in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert copied == p and copied._prepared is None


def test_an_invalid_presentation_raises_every_time_and_keeps_nothing():
    bad = SeifertPresentation(1, ((0, 2), (0, 0)), (1, 0), (0, 1), 0)
    for _ in range(2):
        for op in (prepare, h_closed_form, lambda p: gamma_seq(p, 5), lambda p: gamma_k(p, 2),
                   lambda p: derivative_class(p, 1)):
            with pytest.raises(ValueError, match=r"invalid presentation: det\(V - V\^T\) = 4"):
                op(bad)
            assert bad._prepared is None


def test_gamma_values_are_integers_up_to_32():
    for p in corpus(5):
        for e in gamma_seq(p, 32).entries:
            assert isinstance(e, int)


def test_derivative_class_consistency():
    for p in corpus(8):
        a_inv = int_inverse(intersection_form(p))
        assert gamma_k(p, 1) == vec_dot(mat_vec(a_inv, p.v2), p.v3)
        for k in range(2, 7):
            u = mat_vec(a_inv, derivative_class(p, k - 1))
            assert gamma_k(p, k) == vec_dot(u, p.v3)


def test_gamma_bilinear_in_v2_and_v3():
    for p in corpus(6):
        q = gen_presentation(seed=1000 + p.genus, genus=p.genus, bound=3)
        summed_v2 = SeifertPresentation(
            p.genus,
            p.seifert_matrix,
            tuple(x + y for x, y in zip(p.v2, q.v2)),
            p.v3,
            p.lk23,
        )
        summed_v3 = SeifertPresentation(
            p.genus,
            p.seifert_matrix,
            p.v2,
            tuple(x + y for x, y in zip(p.v3, q.v3)),
            p.lk23,
        )
        other_v2 = SeifertPresentation(p.genus, p.seifert_matrix, q.v2, p.v3, p.lk23)
        other_v3 = SeifertPresentation(p.genus, p.seifert_matrix, p.v2, q.v3, p.lk23)
        for k in range(1, 9):
            assert gamma_k(summed_v2, k) == gamma_k(p, k) + gamma_k(other_v2, k)
            assert gamma_k(summed_v3, k) == gamma_k(p, k) + gamma_k(other_v3, k)


# -------------------------------------------------------------- h_closed_form


def test_h_fixture_value():
    assert h_closed_form(FIX) == ratfn_reduce(Poly((2, -1)), Poly((3, -2)))


def test_h_constant_when_v2_vanishes():
    p = SeifertPresentation(1, ((0, 1), (0, 0)), (0, 0), (1, 1), -4)
    h = h_closed_form(p)
    assert h == ratfn_reduce(Poly((-4,)), Poly((1,)))


def test_h_value_at_one_is_lk23():
    for p in corpus(10):
        assert ratfn_eval(h_closed_form(p), 1) == p.lk23


def test_h_denominator_never_vanishes_at_center():
    for p in corpus(20):
        assert h_closed_form(p).den(1) != 0


# h's unreduced pair is (4 - 8t + 5t^2 - t^3)/(4 - 4t + t^2), which RatFn
# reduces by Euclid over Q, the certificate mod p failing, to h = 1 - t
COMMON_FACTOR = SeifertPresentation(
    2,
    ((-1, -1, 1, 0), (-2, -2, -1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
    (-1, -1, 1, 0),
    (2, 3, 0, 0),
    0,
)


def test_h_has_integer_coefficients():
    # det(A) = 1 makes h's reduced denominator +-1 at t = 1, so by Gauss's
    # lemma no content is divided out: the CLI writes these coefficients
    # to JSON as they are
    presentations = [
        gen_presentation(seed, genus, 1 + seed % 4) for genus in range(1, 5) for seed in range(30)
    ]
    reduced = 0
    for p in presentations + [COMMON_FACTOR]:
        h = h_closed_form(p)
        coeffs = h.num.coeffs + h.den.coeffs + series_expand_at_one(h, 6).coeffs
        assert all(type(c) is int for c in coeffs), p
        assert h.den(1) in (1, -1), p
        reduced += h.den.degree() < 2 * p.genus
    assert h_closed_form(COMMON_FACTOR) == ratfn_reduce(Poly((1, -1)), Poly((1,)))
    assert reduced, "no presentation reduced"


def test_h_expansion_matches_iterative_path():
    # two fully independent computation routes agree coefficientwise, past the
    # 2n + 1 terms that pin down an h of numerator and denominator degree <= n = 2g
    high_genus = [gen_presentation(seed, genus, 3) for seed in range(3) for genus in (4, 5)]
    high_genus += [gen_presentation(seed, genus, 2) for seed in range(2) for genus in (6, 7, 8)]
    for p in corpus(40) + high_genus:
        order = max(12, 4 * p.genus + 2)
        expansion = series_expand_at_one(h_closed_form(p), order)
        assert expansion.coeffs == gamma_seq(p, order).entries


@pytest.mark.parametrize("order", [60, 400])
def test_swap_expands_h_at_one_over_t(order):
    # the swap substitutes x = -y/(1+y), that is t -> 1/t on h, and h(1/t) is
    # num and den reversed at their common degree: the recursion and
    # swap_seq against the bordered determinant; order 400 swaps through a
    # short form, order 60 through the table
    for genus in range(1, 5):
        for seed in range(10):
            p = gen_presentation(seed, genus, 3)
            h = h_closed_form(p)
            size = max(len(h.num.coeffs), len(h.den.coeffs))
            num, den = ((c.coeffs + (0,) * (size - len(c.coeffs)))[::-1] for c in (h.num, h.den))
            expansion = series_expand_at_one(ratfn_reduce(Poly(num), Poly(den)), order)
            assert swap_seq(gamma_seq(p, order)).entries == expansion.coeffs


def pencil(p):
    # M = A - (t-1)V as a polynomial matrix in t
    a, v = intersection_form(p), p.seifert_matrix
    n = len(v)
    return [[Poly((a[i][j] + v[i][j], -v[i][j])) for j in range(n)] for i in range(n)]


def test_h_matches_adjugate_formula():
    # reference: lk23 det M + (t-1) sum_ij v3_i adj(M)_ij v2_j over det M
    high_genus = [gen_presentation(seed, 4, 2) for seed in range(2)]
    for p in corpus(9) + high_genus:
        m = pencil(p)
        n = len(m)
        adj = adjugate(m)
        pairing = Poly(())
        for i in range(n):
            for j in range(n):
                pairing = pairing + adj[i][j] * (p.v3[i] * p.v2[j])
        d = det(m)
        assert h_closed_form(p) == ratfn_reduce(d * p.lk23 + Poly((-1, 1)) * pairing, d)


def test_h_elimination_swaps_on_zero_diagonal():
    # V with a zero diagonal gives M a zero diagonal, so the elimination in
    # h_closed_form must swap rows; its det M and numerator still match det
    zero_diagonal = [FIX]
    for seed in range(4):
        q = gen_presentation(seed, 1 + seed % 3, 3)
        v = tuple(
            tuple(0 if i == j else e for j, e in enumerate(row))
            for i, row in enumerate(q.seifert_matrix)
        )
        zero_diagonal.append(SeifertPresentation(q.genus, v, q.v2, q.v3, q.lk23))
    for p in zero_diagonal:
        assert validate(p) == []
        m = pencil(p)
        assert not m[0][0]
        b = [Poly((e,)) for e in p.v2]
        c = [Poly((e, -e)) for e in p.v3]
        d = Poly((p.lk23,))
        den, num = bordered_det(m, b, c, d)
        assert den == det(m)
        assert num == det([row + [b[i]] for i, row in enumerate(m)] + [c + [d]])
        with pytest.raises(TypeError):
            bordered_det(m, p.v2, c, d)
        order = 4 * p.genus + 2
        assert series_expand_at_one(h_closed_form(p), order).coeffs == gamma_seq(p, order).entries


# ----------------------------------------------------------- gen_presentation


def test_gen_presentation_deterministic():
    a = gen_presentation(12, 2, 3)
    b = gen_presentation(12, 2, 3)
    assert a == b
    assert gen_presentation(13, 2, 3) != a


def test_gen_presentation_always_valid():
    for seed in range(20):
        for genus in (1, 2, 3):
            p = gen_presentation(seed, genus, 5)
            assert validate(p) == []
            assert len(p.seifert_matrix) == 2 * genus


def test_gen_presentation_argument_checks():
    # a genus or bound that is not a positive int, a bool included, is
    # refused in the words validate uses for a presentation's genus
    for bad in (0, -1, True, False, 1.0, 1.5, "1", None):
        for label, args in (("genus", (0, bad, 3)), ("bound", (0, 1, bad))):
            with pytest.raises(ValueError) as err:
                gen_presentation(*args)
            assert str(err.value) == f"{label} must be a positive integer, got {bad!r}"
        p = SeifertPresentation(bad, FIX.seifert_matrix, FIX.v2, FIX.v3, FIX.lk23)
        assert validate(p) == [f"genus must be a positive integer, got {bad!r}"]


def test_gen_presentation_output_is_pinned():
    # the repr of every presentation over seeds 0-39, genus 1-12 and bounds
    # 1, 2, 3, 5, as the matrix-product shears below produced it: a change
    # to the generator or to its draws from random.Random changes the digest
    h = sha256()
    for genus in range(1, 13):
        for bound in (1, 2, 3, 5):
            for seed in range(40):
                h.update(repr(gen_presentation(seed, genus, bound)).encode())
    assert h.hexdigest() == "2a675182500773a40eec2f04d9f2503324c4e8c68978227675336b308854c650"


def gen_presentation_by_products(seed, genus, bound):
    # each shear S = I + s e_r e_c^T applied as the product S^T V S, with
    # the same draws in the same order as gen_presentation
    rng = random.Random(seed * 1_000_003 + genus * 1_009 + bound)
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for col in range(i + 1):
            v[i][col] = rng.randint(-bound, bound)
    for i in range(n):
        for col in range(i + 1, n):
            v[i][col] = v[col][i] + (1 if col == i + 1 and i % 2 == 0 else 0)
    v = tuple(tuple(row) for row in v)
    for _ in range(rng.randint(0, n)):
        r, c = rng.randrange(n), rng.randrange(n)
        if r == c:
            continue
        shear = [list(row) for row in identity(n)]
        shear[r][c] = rng.choice((-1, 1))
        v = mat_mul(transpose(shear), mat_mul(v, shear))
    v2 = tuple(rng.randint(-bound, bound) for _ in range(n))
    v3 = tuple(rng.randint(-bound, bound) for _ in range(n))
    lk23 = rng.randint(-bound, bound)
    return SeifertPresentation(genus, v, v2, v3, lk23)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-(10**9), 10**9), genus=st.integers(1, 12), bound=st.integers(1, 5))
@example(seed=0, genus=12, bound=5)
def test_gen_presentation_matches_the_matrix_product_shears(seed, genus, bound):
    p = gen_presentation(seed, genus, bound)
    q = gen_presentation_by_products(seed, genus, bound)
    assert repr(p) == repr(q)
    assert all(type(e) is int for row in p.seifert_matrix for e in row)
    assert det(intersection_form(p)) == 1


def test_gamma_seq_entries_frozen_type():
    with pytest.raises(TypeError):
        GammaSeq((1, "x"))
    with pytest.raises(ValueError):
        GammaSeq(())

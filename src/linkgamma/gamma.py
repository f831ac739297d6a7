"""Gamma invariants of 3-component links from Seifert-matrix data.

A link ``(L1, L2, L3)`` whose distinguished first component bounds a genus-g
Seifert surface disjoint from the other two is described here purely
homologically by a :class:`SeifertPresentation`: the ``2g x 2g`` Seifert
matrix ``V`` of that surface, integer column vectors ``v2`` and ``v3``
giving the classes of the second and third components in the surface
complement (coordinates in the linking-dual basis, *not* the surface
basis), and the linking number ``lk23`` of those two components.

From this data the k-th gamma invariant is the integer

    gamma_k = (A^-1 (V A^-1)^(k-1) v2)^T v3,   A = V - V^T,

with ``gamma_0 = lk23``.  The skew intersection form ``A`` of a genuine
Seifert surface is unimodular, and being skew of even size its determinant
is the square of its Pfaffian, hence exactly +1; :func:`validate` enforces
this, which also makes ``A^-1`` integral so every gamma value is an
integer.  :func:`gamma_seq` takes gamma_1..gamma_2g from this recursion and,
for long sequences, continues it with the scalar recurrence whose
coefficients are those of the characteristic polynomial of ``A^-1 V``
(Cayley-Hamilton); :func:`gamma_k` keeps the vector recursion alone.

The whole sequence is equivalently packaged as a rational function: the
Taylor coefficients at t = 1 of

    h(t) = lk23 + (t - 1) * v3^T (A - (t - 1) V)^-1 v2

reproduce the gamma sequence.  :func:`h_closed_form` computes this as a
quotient of two polynomial determinants: with ``M = A - (t - 1) V``, the
bordered matrix ``[[M, v2], [-(t - 1) v3^T, lk23]]`` has determinant
``lk23 det M + (t - 1) v3^T adj(M) v2``, the numerator of h over ``det M``.
One fraction-free elimination of the bordered matrix yields both: with
its pivots taken from the rows of ``M`` only, ``det M`` is its last
leading pivot.
That is a different route from the integer recursion above, its
characteristic-polynomial continuation included, and the test suites check
coefficient-by-coefficient agreement between the two before anything
relies on the closed form.

Whether a given matrix-valid presentation is realized by an actual link is
not decided here; validation checks exactly the conditions forced by the
algebra.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate, islice, repeat
from operator import mul

from .exactnum import Poly, RatFn, _expansion, _require_int, ratfn_reduce
from .polylin import (
    IntMatrix,
    IntVector,
    bordered_det,
    charpoly,
    det,
    int_inverse,
    mat_mul,
    mat_vec,
    vec_dot,
)


class Record:
    """Immutable value with the fields named in ``__slots__``, in order; a
    slot whose name starts with an underscore is private, not a field.

    Subclasses set their slots once, in ``__init__`` through ``_set``;
    after that, assigning or deleting an attribute raises
    ``AttributeError`` (the library may fill in a private slot later, with
    ``object.__setattr__``).  Equality and hashing compare the field
    values of two records of the same class, ``repr`` shows every field,
    and copying and pickling rebuild the record through its constructor.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple([f for f in cls.__slots__ if not f.startswith("_")])

    def _set(self, *values) -> None:
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def build_records(cls, *columns) -> list:
    """Records of ``cls`` from columns of slot values, in ``__slots__``
    order, for values the library computed: no ``__init__`` and no checks,
    each slot set through its own setter a column at a time, at about half
    the cost of a constructor call per record."""
    records = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        deque(map(cls.__dict__[name].__set__, records, column), 0)
    return records


class SeifertPresentation(Record):
    """Homological data of a 3-component link with distinguished component;
    :func:`prepare` keeps its ``A^-1`` and ``B = A^-1 V`` in ``_prepared``."""

    __slots__ = ("genus", "seifert_matrix", "v2", "v3", "lk23", "name", "_prepared")

    def __init__(self, genus: int, seifert_matrix: IntMatrix, v2: IntVector,
                 v3: IntVector, lk23: int, name: str | None = None):
        matrix = tuple([tuple(row) for row in seifert_matrix])
        self._set(genus, matrix, tuple(v2), tuple(v3), lk23, name, None)


class GammaSeq(Record):
    """Truncated gamma sequence; ``entries[k]`` is the k-th invariant.

    A sequence that :func:`gamma_seq` continued through its recurrence
    carries its form ``(P, C, 0)``: integer tuples with ``C[0] == 1`` such
    that P/C expands to the entries through the order, the shape of the
    forms ``(1+x)^f P/C`` that :func:`~linkgamma.transforms.apply_shift`
    searches for.  A form-free sequence keeps (:meth:`_keep`) the form a
    shift's or a swap's search found and checked, or that an equivalent
    verdict proved from the other side's form; concurrent calls keep
    equally valid forms.  The form is not a field: the public constructor
    never attaches one, and equality, hashing, ``repr`` and pickling
    ignore it."""

    __slots__ = ("entries", "_form")

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a gamma sequence has at least its order-0 entry")
        for e in entries:
            if not isinstance(e, int) or isinstance(e, bool):
                raise TypeError("gamma entries must be integers")
        self._set(entries, None)

    @classmethod
    def _built(cls, entries, form=None) -> "GammaSeq":
        """A sequence of ints the library computed, unchecked, with the
        form it holds by construction, if any."""
        return build_records(cls, [tuple(entries)], [form])[0]

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    def _keep(self, form) -> None:
        """Carry ``(P, C, f)``, proved equal to the entries through the order."""
        num, den, f = form
        object.__setattr__(self, "_form", (tuple(num), tuple(den), f))


def intersection_form(p: SeifertPresentation) -> IntMatrix:
    """The skew form ``V - V^T`` of the presentation's surface."""
    v = p.seifert_matrix
    return tuple(
        [tuple([v[i][j] - v[j][i] for j in range(len(v))]) for i in range(len(v))]
    )


def validate(p: SeifertPresentation) -> list[str]:
    """Check every presentation invariant; an empty list means valid."""
    problems = []
    v = p.seifert_matrix
    n = len(v)
    genus_ok = isinstance(p.genus, int) and not isinstance(p.genus, bool) and p.genus >= 1
    if not genus_ok:
        problems.append(f"genus must be a positive integer, got {p.genus!r}")
    if n == 0:
        problems.append("seifert_matrix must be square, got shape 0x0")
        return problems
    for i, row in enumerate(v):
        if len(row) != n:
            problems.append(
                f"seifert_matrix must be square: row {i} has length {len(row)}, expected {n}"
            )
            return problems
    for row in v:
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                problems.append("seifert_matrix entries must be integers")
                return problems
    if n % 2:
        problems.append(f"seifert_matrix has odd size {n}; expected even size 2g")
    if genus_ok and n != 2 * p.genus:
        problems.append(f"seifert_matrix size {n} does not match genus {p.genus}")
    for label, vec in (("v2", p.v2), ("v3", p.v3)):
        if len(vec) != n:
            problems.append(f"{label} has length {len(vec)}, expected {n}")
        elif any(not isinstance(e, int) or isinstance(e, bool) for e in vec):
            problems.append(f"{label} entries must be integers")
    if not isinstance(p.lk23, int) or isinstance(p.lk23, bool):
        problems.append("lk23 must be an integer")
    d = det(intersection_form(p))
    if d != 1:
        problems.append(f"det(V - V^T) = {d}, expected 1")
    return problems


def _require_valid(p: SeifertPresentation) -> None:
    problems = validate(p)
    if problems:
        raise ValueError("invalid presentation: " + "; ".join(problems))


def prepare(p: SeifertPresentation) -> SeifertPresentation:
    """Validate ``p`` and form ``A^-1`` and ``B = A^-1 V``, the integer data
    every recursion value is read from, on the first call; ``p`` keeps them
    and is returned, so later calls and every function here skip the check
    and the inversion, and several presentations can be checked before any
    sequence work starts.  Concurrent first calls keep equal values."""
    if p._prepared is None:
        _require_valid(p)
        a_inv = int_inverse(intersection_form(p))
        object.__setattr__(p, "_prepared", (a_inv, mat_mul(a_inv, p.seifert_matrix)))
    return p


def _recursion(p: SeifertPresentation):
    """Iterator over ``u_k = B^(k-1) A^-1 v2`` for k = 1, 2, ..., one
    ``mat_vec`` per step, for a prepared p.  Every recursion value is a
    view of it: ``gamma_k = u_k . v3`` and ``(V A^-1)^k v2 = V u_k``."""
    a_inv, b = p._prepared
    return accumulate(repeat(b), lambda u, m: mat_vec(m, u), initial=mat_vec(a_inv, p.v2))


def derivative_class(p: SeifertPresentation, k: int) -> IntVector:
    """Homology class ``(V A^-1)^k v2`` of the k-fold derived second
    component in the surface complement."""
    _require_int(k, "derivative order k", 1)
    prepare(p)
    return mat_vec(p.seifert_matrix, next(islice(_recursion(p), k - 1, None)))


def gamma_k(p: SeifertPresentation, k: int) -> int:
    """The k-th gamma invariant of the presentation (k = 0 is ``lk23``),
    from the vector recursion alone."""
    _require_int(k, "gamma index", 0)
    prepare(p)
    if not k:
        return p.lk23
    return vec_dot(next(islice(_recursion(p), k - 1, None)), p.v3)


def _recurrence_pays(n: int, order: int) -> bool:
    # charpoly's ~n^4/4 products pay once the order - n terms past the n-th
    # cost more than n^2/4 vector steps of n^2 products; the 16 (four steps)
    # stands for charpoly's fixed costs, which decide genus 1-2
    return 4 * (order - n) >= n * n + 16


def gamma_seq(p: SeifertPresentation, order: int) -> GammaSeq:
    """Gamma invariants 0..order in a single pass, with no matrix powers.

    Terms 1..n (n = 2g) come from the vector recursion, one ``mat_vec``
    per term.  When the order is long enough for it to pay, every later
    term comes from the characteristic polynomial
    ``det(xI - B) = sum_i c_i x^(n-i)`` (:func:`~linkgamma.polylin.charpoly`):
    by Cayley-Hamilton ``sum_i c_i B^(n-i) = 0``, and
    ``gamma_k = v3^T B^(k-1) A^-1 v2`` for every k >= 1, so

        gamma_k = -(c_1 gamma_(k-1) + ... + c_n gamma_(k-n)),   k > n,

    n products a term instead of n^2.  ``gamma_0 = lk23`` is not of that
    form, and the recurrence never reads it.  So with
    ``C = det(I - xB) = sum_i c_i x^i`` and P the product of C with terms
    0..n, truncated to degree n, the sequence expands P/C, and the result
    carries that form.  That expansion goes through the memo of the last
    two (:func:`~linkgamma.exactnum._expansion`), which
    :func:`~linkgamma.exactnum.series_expand_at_one` reads: h's expansion
    at t = 1 is this P/C unless h reduces, so right after this call it
    divides nothing again.
    """
    _require_int(order, "sequence order", 0)
    prepare(p)
    v3 = p.v3
    n = len(v3)
    head = n if _recurrence_pays(n, order) else order
    terms = islice(_recursion(p), head)
    entries = [p.lk23, *[vec_dot(u, v3) for u in terms]]
    if head < order:
        den = charpoly(p._prepared[1])
        num = tuple([sum(map(mul, den, entries[k::-1])) for k in range(n + 1)])
        return GammaSeq._built(_expansion(num, den, order), (num, den, 0))
    return GammaSeq._built(entries)


def h_closed_form(p: SeifertPresentation) -> RatFn:
    """The rational function whose Taylor coefficients at t = 1 are the
    gamma sequence, as a quotient of two determinants:

        det([[M, v2], [-(t-1) v3^T, lk23]]) / det(M),   M = A - (t-1)V,

    where the bordered numerator equals ``lk23 det M + (t-1) v3^T adj(M) v2``.
    Both come from one fraction-free elimination of the bordered matrix
    (:func:`~linkgamma.polylin.bordered_det`): its pivots are taken from the
    rows of M only, which is always possible because det M is nonzero, so
    det M is its last leading pivot.  The denominator evaluates to
    det(A) = 1 at t = 1, so the expansion center is never a pole for a
    valid presentation.  A prepared presentation is not validated again,
    and a fresh one is validated without forming ``A^-1``.
    """
    if p._prepared is None:
        _require_valid(p)
    a = intersection_form(p)
    v = p.seifert_matrix
    n = len(v)
    # entry of A - (t-1)V as a polynomial in t
    m = [[Poly((a[i][j] + v[i][j], -v[i][j])) for j in range(n)] for i in range(n)]
    den, num = bordered_det(m, [Poly((e,)) for e in p.v2], [Poly((e, -e)) for e in p.v3],
                            Poly((p.lk23,)))
    return ratfn_reduce(num, den)


def gen_presentation(seed: int, genus: int, bound: int) -> SeifertPresentation:
    """Deterministic pseudorandom valid presentation.

    Strictly-lower and diagonal entries of V are drawn from
    ``[-bound, bound]``; strictly-upper entries are set so that
    ``V - V^T`` equals the standard symplectic form, then V is taken to
    ``S^T V S`` by a few random unimodular shears ``S = I + s e_r e_c^T``
    (which preserves ``det(V - V^T) = 1``).  Each shear is a column
    operation, column c += s * column r, then a row operation, row c +=
    s * row r, O(n) each.  The same arguments always produce the same
    presentation.
    """
    for label, value in (("genus", genus), ("bound", bound)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"{label} must be a positive integer, got {value!r}")
    rng = random.Random(seed * 1_000_003 + genus * 1_009 + bound)
    n = 2 * genus
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for col in range(i + 1):
            v[i][col] = v[col][i] = rng.randint(-bound, bound)
    for b in range(0, n, 2):
        v[b][b + 1] += 1
    for _ in range(rng.randint(0, n)):
        r, c = rng.randrange(n), rng.randrange(n)
        if r == c:
            continue
        s = rng.choice((-1, 1))
        for row in v:
            row[c] += s * row[r]
        v[c] = [x + s * y for x, y in zip(v[c], v[r])]
    v2 = tuple(rng.randint(-bound, bound) for _ in range(n))
    v3 = tuple(rng.randint(-bound, bound) for _ in range(n))
    lk23 = rng.randint(-bound, bound)
    return SeifertPresentation(genus, v, v2, v3, lk23)

"""Built-in health check: the bundled fixture corpus plus seeded
randomized oracle suites.

Every check is deterministic (fixed seeds throughout), so two runs produce
identical reports, and the first failing case is printed reproducibly.
"""

from __future__ import annotations

import random
from importlib.resources import files as resource_files
from pathlib import Path

from . import fileformat
from .equivalence import EquivVerdict, are_equivalent, canonicalize
from .exactnum import (
    Poly,
    Series,
    ratfn_eval,
    ratfn_reduce,
    series_compose,
    series_expand_at_one,
)
from .gamma import GammaSeq, gamma_k, gamma_seq, gen_presentation, h_closed_form, validate
from .milnor import MilnorResidue, milnor_residues
from .transforms import apply_shift, beta_from_gamma, mixed_gamma0, swap_seq

SEED = 1729


def _read_fixture(fixtures_dir, filename: str) -> str:
    if fixtures_dir is None:
        return (resource_files("linkgamma") / "fixtures" / filename).read_text()
    return (Path(fixtures_dir) / filename).read_text()


def _load(fixtures_dir, filename: str):
    kind, payload = fileformat.load_text(_read_fixture(fixtures_dir, filename))
    return kind, payload


def _check(case, got, expected):
    return case, got == expected, f"expected {expected!r}, got {got!r}"


def _fixture_checks(fixtures_dir):
    fname = "powers-of-two-link.json"
    try:
        _, pres = _load(fixtures_dir, fname)
        yield _check(f"{fname}: validates", validate(pres), [])
        yield _check(
            f"{fname}: gamma to order 8",
            gamma_seq(pres, 8).entries,
            (1, 1, 2, 4, 8, 16, 32, 64, 128),
        )
        yield _check(f"{fname}: gamma_k(0)", gamma_k(pres, 0), 1)
        yield _check(f"{fname}: gamma_k(5)", gamma_k(pres, 5), 16)
        h = h_closed_form(pres)
        yield _check(
            f"{fname}: closed form", h, ratfn_reduce(Poly((2, -1)), Poly((3, -2)))
        )
        yield _check(
            f"{fname}: expansion to order 4",
            series_expand_at_one(h, 4).coeffs,
            (1, 1, 2, 4, 8),
        )
        yield _check(f"{fname}: value at t=1", ratfn_eval(h, 1), 1)
    except Exception as exc:  # report, do not crash the report
        yield f"{fname}: load", False, str(exc)

    try:
        _, (alt, _) = _load(fixtures_dir, "alternating-signs.json")
        _, (unit, _) = _load(fixtures_dir, "unit-step.json")
        yield _check("alternating-signs.json: one shift", apply_shift(alt, 1), unit)
        yield _check(
            "alternating-signs.json vs unit-step.json",
            are_equivalent(alt, unit),
            EquivVerdict.equivalent(1),
        )
        yield _check(
            "alternating-signs.json: canonical form", canonicalize(alt), (unit, 1)
        )
        residues = milnor_residues(alt)
        expected = [MilnorResidue(0, 0, 1)] + [
            MilnorResidue(k, 1, 0) for k in range(1, alt.order + 1)
        ]
        yield _check("alternating-signs.json: residues", residues, expected)
    except Exception as exc:
        yield "alternating-signs.json / unit-step.json: load", False, str(exc)

    try:
        _, (three, _) = _load(fixtures_dir, "leading-one-three.json")
        _, (four, _) = _load(fixtures_dir, "leading-one-four.json")
        _, (bumped, _) = _load(fixtures_dir, "leading-one-three-bumped.json")
        yield _check(
            "leading-one-three.json vs leading-one-four.json",
            are_equivalent(three, four),
            EquivVerdict.equivalent(1),
        )
        yield _check(
            "leading-one-three-bumped.json vs leading-one-four.json",
            are_equivalent(bumped, four),
            EquivVerdict.distinct(2),
        )
    except Exception as exc:
        yield "leading-one fixtures: load", False, str(exc)

    fname = "single-spike-order-three.json"
    try:
        _, (spike, _) = _load(fixtures_dir, fname)
        yield _check(
            f"{fname}: residues",
            milnor_residues(spike),
            [
                MilnorResidue(0, 0, 0),
                MilnorResidue(1, 0, 0),
                MilnorResidue(2, 0, 0),
                MilnorResidue(3, 0, 1),
                MilnorResidue(4, 1, 0),
            ],
        )
        yield _check(f"{fname}: beta(2)", beta_from_gamma(spike, 2), 1)
        yield _check(f"{fname}: mixed(2, 1)", mixed_gamma0(spike, 2, 1), -1)
        yield _check(f"{fname}: swap involution", swap_seq(swap_seq(spike)), spike)
    except Exception as exc:
        yield f"{fname}: load", False, str(exc)

    fname = "mixed-support.json"
    try:
        _, (seq, name) = _load(fixtures_dir, fname)
        yield _check(f"{fname}: swap involution", swap_seq(swap_seq(seq)), seq)
        ok = all(
            milnor_residues(apply_shift(seq, n)) == milnor_residues(seq)
            for n in range(-3, 4)
        )
        yield f"{fname}: residue shift invariance", ok, "residues moved under shift"
        doc = fileformat.sequence_to_doc(seq, name)
        yield _check(f"{fname}: round trip", fileformat.sequence_from_doc(doc), (seq, name))
    except Exception as exc:
        yield f"{fname}: load", False, str(exc)


def _h_oracle_checks():
    for i in range(60):
        pres = gen_presentation(seed=i, genus=1 + i % 3, bound=1 + i % 4)
        label = f"presentation(seed={i}, genus={1 + i % 3}, bound={1 + i % 4})"
        problems = validate(pres)
        if problems:
            yield f"{label}: validates", False, "; ".join(problems)
            continue
        h = h_closed_form(pres)
        if h.den(1) == 0:
            yield f"{label}: denominator at t=1", False, "vanishes"
            continue
        expansion = series_expand_at_one(h, 10).coeffs
        iterative = gamma_seq(pres, 10).entries
        yield _check(f"{label}: closed form matches iteration", expansion, iterative)


def _random_seq(rng, order):
    return GammaSeq(tuple(rng.randint(-9, 9) for _ in range(order + 1)))


def _swap_checks():
    rng = random.Random(SEED)
    mobius = series_expand_at_one(ratfn_reduce(Poly((1, -1)), Poly((0, 1))), 16)
    for i in range(200):
        s = _random_seq(rng, 16)
        yield _check(f"swap twice #{i}", swap_seq(swap_seq(s)), s)
        if i < 50:
            tail = Series((0,) + s.entries[1:])
            swapped_tail = Series((0,) + swap_seq(s).entries[1:])
            yield _check(
                f"swap vs substitution #{i}",
                series_compose(tail, mobius, 16),
                swapped_tail,
            )


def _nonzero_seq(rng, order):
    while True:
        s = _random_seq(rng, order)
        if any(s.entries[:order]):
            return s


def _shift_checks():
    rng = random.Random(SEED + 1)
    for i in range(100):
        s = _nonzero_seq(rng, 16)
        ok = all(
            are_equivalent(s, apply_shift(s, n)) == EquivVerdict.equivalent(n)
            for n in range(-8, 9)
        )
        yield f"shift soundness #{i}", ok, f"failed for {s.entries}"
        canon, _ = canonicalize(s)
        yield _check(f"canonical idempotence #{i}", canonicalize(canon), (canon, 0))
        ok = all(
            canonicalize(apply_shift(s, n))[0] == canon for n in (-3, -1, 1, 4)
        )
        yield f"canonical class constance #{i}", ok, f"failed for {s.entries}"


def _milnor_checks():
    rng = random.Random(SEED + 2)
    for i in range(100):
        s = _random_seq(rng, 12)
        base = milnor_residues(s)
        ok = all(
            milnor_residues(apply_shift(s, n)) == base for n in range(-5, 6)
        )
        yield f"residue shift invariance #{i}", ok, f"failed for {s.entries}"


def run(fixtures_dir=None):
    """Run every suite; return ``(healthy, document, text)``, the report as
    a JSON document and as plain text."""
    suites = [
        ("fixture-corpus", lambda: _fixture_checks(fixtures_dir)),
        ("closed-form-vs-iterative", _h_oracle_checks),
        ("swap-involution", _swap_checks),
        ("shift-soundness", _shift_checks),
        ("milnor-shift-invariance", _milnor_checks),
    ]
    summary = []
    first_failure = None
    for name, gen in suites:
        total = 0
        passed = 0
        for case, ok, detail in gen():
            total += 1
            if ok:
                passed += 1
            elif first_failure is None:
                first_failure = {"suite": name, "case": case, "detail": detail}
        summary.append({"suite": name, "passed": passed, "total": total})
    healthy = first_failure is None
    lines = [f"{row['suite']}: {row['passed']}/{row['total']} passed" for row in summary]
    if first_failure is not None:
        lines.append("FAIL [{suite}] {case}: {detail}".format(**first_failure))
    lines.append(f"selftest: {'PASS' if healthy else 'FAIL'}")
    doc = {"suites": summary, "pass": healthy, "first_failure": first_failure}
    return healthy, doc, "\n".join(lines)

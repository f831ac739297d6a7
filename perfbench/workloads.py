"""The benchmark's workloads.

A workload is built from a seed: its constructor is the set-up.  It
generates every input and every expected value, then hands the runner
*rounds*, lists of items.  An item runs the program on one input and raises
:class:`Mismatch` when an output differs from what was expected.  All
workloads are closed loops with one client: the runner starts an item only
after the previous one has finished, in one process with no worker threads.

Expected values come from :mod:`reference`, which shares no code with the
program, or from an identity between two of the program's routes; no
output goes unchecked.  Workloads call :mod:`reference` through
:data:`reference`, a :class:`TimedReference`, so the runner can leave the
benchmark's own work out of the set-up time.

The workloads call the program through module attributes
(``lg.gamma.gamma_seq``), looked up at call time, so a traced run sees
every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference as _reference

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "linkgamma" / "fixtures"
BOUND = 3  # coefficient bound passed to gen_presentation
SPAWN_TIMEOUT_S = 60


def _frozen(value):
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


class TimedReference:
    """The functions of :mod:`reference` behind a stopwatch and a cache.

    Expected values are the benchmark's work, not the program's, so the
    runner leaves ``seconds``, the time spent in here, out of ``setup_s``.
    They depend only on the arguments, so a repeated set-up of the same seed
    takes them from the cache.  Every call returns a copy, which the caller
    may change."""

    def __init__(self):
        self.seconds = 0.0
        self._cache = {}

    def clear(self):
        self._cache.clear()

    def __getattr__(self, name):
        fn = getattr(_reference, name)

        def call(*args):
            t0 = time.perf_counter()
            key = (name, _frozen(args))
            if key not in self._cache:
                self._cache[key] = fn(*args)
            value = copy.deepcopy(self._cache[key])
            self.seconds += time.perf_counter() - t0
            return value

        return call


reference = TimedReference()


class Mismatch(Exception):
    """An output of the program differed from its expected value."""


def _short(value, limit=120):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def expect(got, want, what):
    if got != want:
        raise Mismatch(f"{what}: got {_short(got)}, expected {_short(want)}")


@dataclass
class Item:
    label: str
    group: int  # genus for the compute workloads, 0 for cli-small
    run: object  # callable with no arguments


def _nonzero_head(lg, rng, genus, order):
    """A seeded presentation whose sequence has a nonzero entry at index 0
    or 1, so the equivalence check pins its exponent from the first two
    entries, and that sequence to ``order``."""
    while True:
        p = lg.gamma.gen_presentation(rng.randrange(10**9), genus, BOUND)
        head = reference.gamma_sequence(p.seifert_matrix, p.v2, p.v3, p.lk23, 1)
        if any(head):
            return p, reference.gamma_sequence(p.seifert_matrix, p.v2, p.v3, p.lk23, order)


class HGenusLadder:
    """``h_closed_form``, its expansion to order 2n+2 (n = 2g) and
    ``gamma_seq`` to the same order, which must agree entry by entry and
    with the reference recursion.  Each round has one item per genus, so
    every genus gets the same number of items."""

    name = "h-genus-ladder"
    in_children = False
    fit_scaling = True

    def __init__(self, lg, seed, genera=(1, 2, 3, 4, 5), pool=24):
        self.lg = lg
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = {}
        for g in genera:
            order = 4 * g + 2
            cases = []
            for _ in range(pool):
                p = lg.gamma.gen_presentation(rng.randrange(10**9), g, BOUND)
                ref = reference.gamma_sequence(p.seifert_matrix, p.v2, p.v3, p.lk23, order)
                cases.append((p, order, ref))
            self.cases[g] = cases

    def _item(self, g, case):
        p, order, ref = case
        lg = self.lg

        def run():
            h = lg.gamma.h_closed_form(p)
            expansion = list(lg.exactnum.series_expand_at_one(h, order).coeffs)
            seq = list(lg.gamma.gamma_seq(p, order).entries)
            expect(expansion, seq, "expansion of h vs gamma_seq")
            expect(seq, ref, "gamma_seq vs reference")

        return Item(f"genus {g} presentation {p.seifert_matrix}", g, run)

    def rounds(self):
        r = 0
        while True:
            yield [self._item(g, cases[r % len(cases)]) for g, cases in self.cases.items()]
            r += 1

    def warmup(self):
        for g in sorted(self.cases)[:2]:
            self._item(g, self.cases[g][0]).run()


@dataclass
class SequenceCase:
    genus: int
    presentation: object
    reference: list
    shift: int  # seeded exponent n: the verdict must be equivalent(n)
    shifted: object  # T^|n| of the sequence, from reference.shift, not apply_shift
    canonical: tuple  # reference canonical exponents, in the order compared
    swap_ks: list
    betas: list  # (k, expected beta_k)
    mixeds: list  # (p, l, expected mixed_gamma0)
    residues: list


class LongSequence:
    """One item per presentation: gamma_seq to a high order against h's
    expansion, Milnor residues, swap on a truncation, beta and mixed values,
    and equivalence plus canonical forms against a copy shifted by a seeded
    exponent n.  For n < 0 the pair is passed as (T^|n| s, s), whose verdict
    is equivalent(n): the program shifts by n either way, and the reference
    copy needs only the positive binomial formula, whose terms stop at
    C(|n|, |n|), instead of the negative one, whose terms never stop.

    Case i has |n| in the i-th of ``pool`` equal strata of [0, max_shift]
    (random sign) and genus ``genera[i % len(genera)]``, so every seed gives
    the same mix of shift work and genus."""

    name = "long-sequence"
    in_children = False
    fit_scaling = False

    def __init__(self, lg, seed, genera=(2, 3, 4), order=1000, max_shift=1000,
                 swap_order=300, pool=9):
        self.lg = lg
        self.order = order
        self.swap_order = swap_order
        rng = random.Random(f"{self.name}/{seed}")
        self.cases = []
        for i in range(pool):
            g = genera[i % len(genera)]
            p, ref = _nonzero_head(lg, rng, g, order)
            m = rng.randint(max_shift * i // pool, max_shift * (i + 1) // pool)
            n = m * rng.choice((-1, 1))
            shifted = reference.shift(ref, m)
            canon = (reference.canonical_exponent(ref), reference.canonical_exponent(shifted))
            if n < 0:
                canon = canon[::-1]
            ks = [rng.randint(1, order // 2) for _ in range(3)]
            pls = []
            for _ in range(3):
                l_ = rng.randint(1, order // 2)
                pls.append((rng.randint(0, order - l_), l_))
            self.cases.append(SequenceCase(
                genus=g, presentation=p, reference=ref, shift=n,
                shifted=lg.gamma.GammaSeq(tuple(shifted)), canonical=canon,
                swap_ks=sorted(rng.sample(range(1, swap_order + 1), 3)),
                betas=[(k, reference.mixed(ref, k, k)) for k in ks],
                mixeds=[(p_, l_, reference.mixed(ref, p_, l_)) for p_, l_ in pls],
                residues=reference.milnor_lines(ref),
            ))

    def _item(self, case):
        lg, order = self.lg, self.order

        def run():
            seq = lg.gamma.gamma_seq(case.presentation, order)
            expect(list(seq.entries), case.reference, "gamma_seq vs reference")
            h = lg.gamma.h_closed_form(case.presentation)
            expansion = lg.exactnum.series_expand_at_one(h, order).coeffs
            expect(list(expansion), case.reference, "expansion of h vs reference")
            residues = [(r.index, r.modulus, r.residue) for r in lg.milnor.milnor_residues(seq)]
            expect(residues, case.residues, "milnor residues")
            swapped = lg.transforms.swap_seq(lg.gamma.GammaSeq(seq.entries[: self.swap_order + 1]))
            expect(swapped.entries[0], seq.entries[0], "swap entry 0")
            for k in case.swap_ks:
                expect(swapped.entries[k], lg.transforms.mixed_gamma0(seq, 0, k), f"swap entry {k}")
            for k, want in case.betas:
                expect(lg.transforms.beta_from_gamma(seq, k), want, f"beta_{k}")
            for p, l_, want in case.mixeds:
                expect(lg.transforms.mixed_gamma0(seq, p, l_), want, f"mixed({p}, {l_})")
            a, b = (seq, case.shifted) if case.shift >= 0 else (case.shifted, seq)
            verdict = lg.equivalence.are_equivalent(a, b)
            expect(str(verdict), f"equivalent({case.shift})", "verdict")
            rep_a, exp_a = lg.equivalence.canonicalize(a)
            rep_b, exp_b = lg.equivalence.canonicalize(b)
            expect((exp_a, exp_b), case.canonical, "canonical exponents")
            expect(rep_a, rep_b, "canonical forms")

        return Item(f"genus {case.genus} shift {case.shift} presentation "
                    f"{case.presentation.seifert_matrix}", case.genus, run)

    def rounds(self):
        i = 0
        while True:
            yield [self._item(self.cases[i % len(self.cases)])]
            i += 1

    def warmup(self):
        self._item(self.cases[0]).run()


# The README's worked examples on the bundled fixtures.
README_EXAMPLES = (
    (["gamma", "-n", "5", str(FIXTURES / "powers-of-two-link.json")], "1 1 2 4 8 16\n"),
    (["h", "--expand", "4", str(FIXTURES / "powers-of-two-link.json")],
     "(-2 + t)/(-3 + 2t)\n1 1 2 4 8\n"),
    (["equiv", str(FIXTURES / "leading-one-three.json"),
      str(FIXTURES / "leading-one-four.json")], "equivalent(1)\n"),
)

# Valid commands cycle through these kinds and, independently, through the
# genera, so every seed has the same mix.  `h` at genus 3 is the one heavy
# command (h_closed_form takes about 60 ms there); listing `h` twice makes it
# about 8% of the items, so the tail percentile falls inside that group in
# every run instead of on its edge.
VALID_KINDS = ("gamma", "h", "equiv", "milnor", "swap", "h", "beta", "mixed")
MALFORMED_KINDS = ("truncated", "missing-field", "non-integer", "det-not-one")
# Malformed documents on which the program exits 1 with a traceback instead
# of the documented exit 2.  They are run after the timed items of every
# cli-small run and reported as known defects, not as items (see README.md).
KNOWN_DEFECT_KINDS = ("non-utf8", "deep-nesting")


@dataclass
class Command:
    label: str
    argv: list
    want_code: int
    want_stdout: str | None  # exact expected stdout, when known independently
    want_last_line: str | None = None  # expected last stdout line, for h --expand
    in_process: tuple | None = None  # (code, stdout) of cli.main in this process


def _seq_line(entries):
    return " ".join(str(e) for e in entries) + "\n"


class CliSmall:
    """A seeded mix of ``linkgamma`` commands, each run as its own
    ``python -m linkgamma.cli`` process; about a tenth of the documents are
    malformed and must exit 2.  In a traced run the same argv run in this
    process through ``cli.main``, where the wrappers can see them."""

    name = "cli-small"
    in_children = True
    fit_scaling = False

    def __init__(self, lg, seed, pool=64, genera=(1, 2, 3), max_order=30, in_process=False):
        self.lg = lg
        self.in_process = in_process
        self.workdir = ROOT / "perfbench" / "out" / f"{self.name}-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        rng = random.Random(f"{self.name}/{seed}")
        self._docs = 0
        self.commands = [Command("readme " + " ".join(argv[:-1]), argv, 0, out)
                         for argv, out in README_EXAMPLES]
        valid = 0
        while len(self.commands) < pool:
            if len(self.commands) % 10 == 0:
                kind = MALFORMED_KINDS[len(self.commands) // 10 % len(MALFORMED_KINDS)]
                self.commands.append(self._malformed(rng, kind))
            else:
                kind, genus = VALID_KINDS[valid % len(VALID_KINDS)], genera[valid % len(genera)]
                self.commands.append(self._valid(rng, kind, genus, max_order))
                valid += 1
        rng.shuffle(self.commands)
        for c in self.commands:
            c.in_process = self._run_in_process(c.argv)
        self.known_defects = [self._defect(kind) for kind in KNOWN_DEFECT_KINDS]

    def _write(self, tag, content):
        self._docs += 1
        path = self.workdir / f"{self._docs:03d}-{tag}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content),
                            encoding="utf-8")
        return str(path)

    def _presentation(self, rng, genus):
        p = self.lg.gamma.gen_presentation(rng.randrange(10**9), genus, BOUND)
        doc = {"genus": p.genus, "seifert_matrix": [list(r) for r in p.seifert_matrix],
               "v2": list(p.v2), "v3": list(p.v3), "lk23": p.lk23}
        return p, doc

    def _valid(self, rng, kind, genus, max_order):
        p, doc = self._presentation(rng, genus)
        order = rng.randint(8, max_order)
        ref = reference.gamma_sequence(p.seifert_matrix, p.v2, p.v3, p.lk23, order)
        if kind == "gamma":
            return Command(f"gamma -n {order} genus {genus}",
                           ["gamma", "-n", str(order), self._write("pres", doc)], 0, _seq_line(ref))
        if kind == "h":
            return Command(f"h --expand {order} genus {genus}",
                           ["h", "--expand", str(order), self._write("pres", doc)], 0, None,
                           want_last_line=_seq_line(ref))
        seq_path = self._write("seq", {"gamma": ref})
        if kind == "milnor":
            lines = "".join(f"{k} {m} {r}\n" for k, m, r in reference.milnor_lines(ref))
            return Command(f"milnor order {order}", ["milnor", seq_path], 0, lines)
        if kind == "swap":
            swapped = [ref[0]] + [reference.mixed(ref, 0, k) for k in range(1, order + 1)]
            return Command(f"swap order {order}", ["swap", seq_path], 0, _seq_line(swapped))
        if kind == "beta":
            k = rng.randint(1, order // 2)
            return Command(f"beta -k {k} order {order}", ["beta", "-k", str(k), seq_path], 0,
                           f"{reference.mixed(ref, k, k)}\n")
        if kind == "mixed":
            l_ = rng.randint(1, order)
            p_ = rng.randint(0, order - l_)
            return Command(f"mixed -p {p_} -l {l_} order {order}",
                           ["mixed", "-p", str(p_), "-l", str(l_), seq_path], 0,
                           f"{reference.mixed(ref, p_, l_)}\n")
        # equiv: a copy shifted by the reference formula, or one entry bumped
        lead = next((k for k, e in enumerate(ref) if e), None)
        if lead is None or lead + 2 > order or rng.random() < 0.5:
            n = rng.randint(-50, 50)
            other = reference.shift(ref, n)
            if lead is None:
                want, code = "indeterminate\n", 5
            else:  # a nonzero entry only at the last index pins no exponent
                want, code = f"equivalent({n if lead < order else 0})\n", 0
        else:
            j = rng.randint(lead + 2, order)
            other = list(ref)
            other[j] += 1
            want, code = f"distinct({j})\n", 4
        return Command(f"equiv order {order}",
                       ["equiv", seq_path, self._write("seq", {"gamma": other})], code, want)

    def _malformed(self, rng, kind):
        p, doc = self._presentation(rng, rng.choice((1, 2)))
        seq_doc = {"gamma": reference.gamma_sequence(p.seifert_matrix, p.v2, p.v3, p.lk23, 10)}
        if kind == "truncated":
            text = json.dumps(doc)
            path = self._write(kind, text[: rng.randint(1, len(text) - 2)])
            argv = ["gamma", "-n", "5", path]
        elif kind == "missing-field":
            del doc[rng.choice(("genus", "v2", "v3", "lk23"))]
            argv = ["h", self._write(kind, doc)]
        elif kind == "non-integer":
            seq_doc["gamma"][rng.randrange(len(seq_doc["gamma"]))] = rng.choice((2.5, "7", None))
            argv = ["milnor", self._write(kind, seq_doc)]
        else:
            v = doc["seifert_matrix"]
            while reference.det(reference.skew(v)) == 1:
                v[0][1] += 1
            argv = ["gamma", "-n", "5", self._write(kind, doc)]
        return Command(f"malformed {kind}: {argv[0]}", argv, 2, "")

    def _defect(self, kind):
        if kind == "non-utf8":
            path = self._write(kind, b'{"gamma": [1, 2, 3], "name": "\xff"}')
        else:
            depth = 2 * sys.getrecursionlimit()
            path = self._write(kind, '{"gamma": ' + "[" * depth + "]" * depth + "}")
        return Command(f"known defect {kind}: milnor", ["milnor", path], 2, "")

    def _run_in_process(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.lg.cli.main(argv)
        return code, out.getvalue()

    def spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "linkgamma.cli", *argv], cwd=ROOT,
                              env=self.env, capture_output=True, timeout=SPAWN_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode("utf-8", "replace")

    def check(self, c, code, stdout):
        expect(code, c.want_code, "exit code")
        if c.want_stdout is not None:
            expect(stdout, c.want_stdout, "stdout")
        if c.want_last_line is not None:
            expect(stdout.splitlines(keepends=True)[-1:], [c.want_last_line], "last line")
        if c.in_process is not None:
            expect((code, stdout), c.in_process, "same command in process")

    def _item(self, c):
        def run():
            code, stdout = self._run_in_process(c.argv) if self.in_process else self.spawn(c.argv)
            self.check(c, code, stdout)

        return Item(c.label, 0, run)

    def rounds(self):
        i = 0
        while True:
            yield [self._item(self.commands[i % len(self.commands)])]
            i += 1

    def warmup(self):
        self._item(self.commands[0]).run()

    def run_known_defects(self):
        """Run the known-defect documents; one line per document that does
        not exit as documented."""
        failing = []
        for c in self.known_defects:
            code, stdout = self.spawn(c.argv)
            try:
                self.check(c, code, stdout)
            except Mismatch as exc:
                failing.append(f"{c.label}: {exc}")
        return failing


WORKLOADS = {w.name: w for w in (HGenusLadder, LongSequence, CliSmall)}

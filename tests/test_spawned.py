"""Checks that need a fresh interpreter: what importing the command line
loads and builds, long commands checked against the library, inputs whose
run time must not grow with an integer they hold, and memory left behind by
repeated construction.
Each process has a timeout, so a regression fails instead of hanging."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkgamma
from linkgamma.equivalence import are_equivalent
from linkgamma.gamma import GammaSeq, SeifertPresentation, gamma_seq, gen_presentation
from linkgamma.polylin import identity

from test_alexander import congruent

SRC = str(Path(linkgamma.__file__).resolve().parent.parent)
TIMEOUT_S = 30


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def spawn(*args):
    return subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, text=True,
        timeout=TIMEOUT_S
    )


def modules_an_import_adds(module="linkgamma.cli"):
    code = (
        f"import json, sys; before = set(sys.modules); import {module}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert module in added
    return added


def package_modules(added):
    return {m for m in added if m.split(".")[0] == "linkgamma"}


def test_the_package_root_loads_no_module():
    # each name has one import path, its module's, so importing gamma
    # loads only what gamma itself imports
    added = package_modules(modules_an_import_adds("linkgamma.gamma"))
    assert added == {"linkgamma", "linkgamma.gamma", "linkgamma.exactnum", "linkgamma.polylin"}


def test_importing_the_cli_loads_the_modules_its_commands_use():
    # a benchmark set-up imports the command line and reads these modules
    # from sys.modules; selftest is imported by its own command only
    added = package_modules(modules_an_import_adds())
    assert added == {"linkgamma"} | {
        f"linkgamma.{m}" for m in ("polylin", "exactnum", "gamma", "transforms",
                                    "equivalence", "milnor", "fileformat", "cli")}


def test_importing_the_cli_loads_neither_dataclasses_nor_selftest():
    added = modules_an_import_adds()
    assert "dataclasses" not in added
    assert "linkgamma.selftest" not in added


def test_importing_the_cli_loads_neither_fractions_nor_decimal():
    # every coefficient is an int, and fractions would bring decimal along
    added = modules_an_import_adds()
    assert "fractions" not in added
    assert "decimal" not in added


def test_the_parser_is_built_on_first_use_and_only_then():
    # every perfbench set-up imports the command line, so the import builds
    # no parser; the first main call builds it and later calls reuse it
    code = (
        "import argparse, contextlib, io, json\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from linkgamma.cli import main\n"
        "counts = [built.count('linkgamma')]\n"
        "for argv in (['--help'], ['gamma'], ['h', 'missing.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        main(argv)\n"
        "    counts.append(built.count('linkgamma'))\n"
        "print(json.dumps(counts))"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 1, 1, 1]


def test_selftest_command_in_a_fresh_process():
    proc = spawn("-m", "linkgamma.cli", "selftest")
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "selftest: PASS")
    proc = spawn("-m", "linkgamma.cli", "--machine", "selftest")
    assert proc.returncode == 0 and json.loads(proc.stdout)["pass"] is True


def test_a_closed_stdout_is_an_input_error(tmp_path):
    # the reader takes 20 bytes of a 600 kB sequence and closes the pipe
    fixture = Path(linkgamma.__file__).parent / "fixtures" / "powers-of-two-link.json"
    with open(tmp_path / "stderr", "w+b") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "linkgamma.cli", "gamma", "-n", "2000", str(fixture)],
            env=child_env(), stdout=subprocess.PIPE, stderr=stderr)
        try:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            assert proc.wait(timeout=TIMEOUT_S) == 2
        finally:
            proc.kill()
        stderr.seek(0)
        err = stderr.read().decode()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("error: ") == 1


def presentation_file(path, p):
    fields = ("genus", "seifert_matrix", "v2", "v3", "lk23")
    path.write_text(json.dumps({f: getattr(p, f) for f in fields}), encoding="utf-8")
    return str(path)


def cli(*args):
    proc = spawn("-m", "linkgamma.cli", *args)
    assert not proc.stderr
    return proc


def test_an_order_1000_sequence_swapped_twice_reads_back(tmp_path):
    # swap is an involution; each swap goes through the sequence's short form
    p = presentation_file(tmp_path / "p.json", gen_presentation(1, 3, 3))
    (tmp_path / "gamma.json").write_text(
        cli("--machine", "gamma", "-n", "1000", p).stdout, encoding="utf-8")
    (tmp_path / "swap.json").write_text(
        cli("--machine", "swap", str(tmp_path / "gamma.json")).stdout, encoding="utf-8")
    back = cli("swap", str(tmp_path / "swap.json"))
    assert back.returncode == 0
    assert back.stdout == cli("gamma", "-n", "1000", p).stdout


def test_equiv_at_order_1000_gives_the_verdict_of_form_free_copies(tmp_path):
    # both sequences the command computes carry their forms, so its verdict
    # is read off the two forms; are_equivalent here shifts copies that
    # carry none.  v3 tripled is a distinct class, and the presentation in
    # a basis changed by three moves (q) an equivalent one
    base = gen_presentation(6, 3, 3)
    pres = [SeifertPresentation(3, base.seifert_matrix, base.v2, [k * e for e in base.v3], 1)
            for k in (1, 3)]
    q = [list(row) for row in identity(6)]
    q[0][3], q[2][5], q[4][4] = 1, -1, -1
    pres.append(congruent(pres[0], q))
    files = [presentation_file(tmp_path / f"{tag}.json", p)
             for tag, p in zip(("base", "v3-times-3", "congruent"), pres)]
    seqs = [GammaSeq(gamma_seq(p, 1000).entries) for p in pres]
    verdicts = []
    for other in (1, 2):
        v = are_equivalent(seqs[0], seqs[other])
        verdicts.append(str(v))
        fields = (("verdict", v.kind), ("shift", v.shift), ("witness_index", v.witness_index))
        code = {"equivalent": 0, "distinct": 4}[v.kind]
        plain = cli("equiv", "-n", "1000", files[0], files[other])
        machine = cli("--machine", "equiv", "-n", "1000", files[0], files[other])
        assert (plain.returncode, plain.stdout) == (code, f"{v}\n")
        assert machine.returncode == code
        assert json.loads(machine.stdout) == {k: x for k, x in fields if x is not None}
    assert verdicts == ["distinct(2)", "equivalent(0)"]


def test_h_expansion_equals_the_gamma_sequence_at_genus_5(tmp_path):
    # the bordered determinant and the integer gcd against the recursion
    p = presentation_file(tmp_path / "genus-5.json", gen_presentation(2, 5, 3))
    h = cli("--machine", "h", "--expand", "60", p)
    gamma = cli("--machine", "gamma", "-n", "60", p)
    assert h.returncode == gamma.returncode == 0
    assert json.loads(h.stdout)["expansion"] == json.loads(gamma.stdout)["gamma"]


def test_equiv_with_a_twelve_digit_exponent(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"gamma": [1, 0, 0, 0]}), encoding="utf-8")
    b.write_text(json.dumps({"gamma": [1, 10**12, 0, 0]}), encoding="utf-8")
    proc = spawn("-m", "linkgamma.cli", "equiv", str(a), str(b))
    assert (proc.returncode, proc.stdout) == (4, "distinct(2)\n")


def test_canonicalize_with_a_twelve_digit_entry():
    entries = (3, 123_456_789_012, 5, -7)
    code = (
        "import json; from linkgamma.equivalence import canonicalize; "
        "from linkgamma.gamma import GammaSeq; "
        f"seq, n = canonicalize(GammaSeq({entries!r})); "
        "print(json.dumps([seq.entries, n]))"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    got, n = json.loads(proc.stdout)
    assert n == (entries[1] % 3 - entries[1]) // 3 < 0
    # T^n s by the closed form, generalized binomials for n < 0
    binom = [(-1) ** j * math.comb(j - n - 1, j) for j in range(len(entries))]
    want = [sum(binom[j] * entries[k - j] for j in range(k + 1)) for k in range(len(entries))]
    assert got == want
    assert got[1] == entries[1] % 3


def leftover_blocks(setup, call):
    """Blocks still allocated after 3000 calls that follow 50 warm-ups,
    in a fresh process."""
    code = (
        f"import sys\n{setup}\n"
        f"for _ in range(50): {call}\n"
        "before = sys.getallocatedblocks()\n"
        f"for _ in range(3000): {call}\n"
        "print(sys.getallocatedblocks() - before)"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_ratfn_construction_leaves_no_blocks_behind():
    # a star-unpacked generator in a call leaves a tuple in CPython's free
    # lists each time, about 1900 blocks over these 3000 constructions
    setup = "from linkgamma.exactnum import Poly, RatFn"
    assert leftover_blocks(setup, "RatFn(Poly((1, 2, 3)), Poly((3, -2, 5)))") < 100


@pytest.mark.parametrize(
    "call",
    ["mat_mul(m, m)", "gamma_seq(p, 8)", "h_closed_form(p)"],
    ids=["mat_mul", "gamma_seq", "h_closed_form"],
)
def test_linear_algebra_leaves_no_blocks_behind(call):
    # a tuple built from a generator or an iterator leaves a block in
    # CPython's free lists each time, about 570 to 3300 blocks here
    setup = (
        "from linkgamma.polylin import mat_mul\n"
        "from linkgamma.gamma import gamma_seq, gen_presentation, h_closed_form\n"
        "p = gen_presentation(1, 1, 3); m = ((1, 2, 3), (4, 5, 6), (7, 8, 9))"
    )
    assert leftover_blocks(setup, call) < 100

"""Checks that need a fresh interpreter: what importing the command line
loads, inputs whose run time must not grow with an integer they hold, and
memory left behind by repeated construction.
Each process has a timeout, so a regression fails instead of hanging."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import linkgamma

SRC = str(Path(linkgamma.__file__).resolve().parent.parent)
TIMEOUT_S = 30


def spawn(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_selftest():
    code = (
        "import json, sys; before = set(sys.modules); import linkgamma.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "linkgamma.cli" in added
    assert "dataclasses" not in added
    assert "linkgamma.selftest" not in added


def test_selftest_command_in_a_fresh_process():
    proc = spawn("-m", "linkgamma.cli", "selftest")
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "selftest: PASS")
    proc = spawn("-m", "linkgamma.cli", "--machine", "selftest")
    assert proc.returncode == 0 and json.loads(proc.stdout)["pass"] is True


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


def test_ratfn_construction_leaves_no_blocks_behind():
    # a star-unpacked generator in a call leaves a tuple in CPython's free
    # lists each time, about 1900 blocks over these 3000 constructions
    code = (
        "import sys; from linkgamma.exactnum import Poly, RatFn\n"
        "for _ in range(50): RatFn(Poly((1, 2, 3)), Poly((3, -2, 5)))\n"
        "before = sys.getallocatedblocks()\n"
        "for _ in range(3000): RatFn(Poly((1, 2, 3)), Poly((3, -2, 5)))\n"
        "print(sys.getallocatedblocks() - before)"
    )
    proc = spawn("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100

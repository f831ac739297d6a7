"""Golden CLI transcripts: the exact stdout and exit code of every command
that applies to a bundled fixture, and of ``h --expand 12`` and
``gamma -n 12`` on seeded generated presentations, of ``h`` and
``h --expand 12`` on a presentation whose unreduced h has a common factor,
of ``swap`` on an order-111 sequence with a short form and one without,
of ``equiv -n 300`` on pairs of presentations, and of ``selftest``, plain
and ``--machine``; and the exit code, stdout and stderr of failing
commands, with the input directory written as ``<dir>`` in stderr, and of
``selftest --fixtures`` on a missing directory and on a corrupted corpus,
with ``<dir>`` in stdout as well.  Usage
errors are recorded by exit code only, since argparse words its messages
differently between Python versions.

The recorded transcripts live in ``golden_cli.json`` next to this file.
After an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files as resource_files
from io import StringIO
from pathlib import Path

from linkgamma.cli import main
from linkgamma.gamma import gamma_seq, gen_presentation

DATA = Path(__file__).with_name("golden_cli.json")
FIXTURES = Path(str(resource_files("linkgamma") / "fixtures"))
PRESENTATION_FIXTURES = ("powers-of-two-link.json",)
SEQUENCE_FIXTURES = (
    "alternating-signs.json",
    "leading-one-four.json",
    "leading-one-three-bumped.json",
    "leading-one-three.json",
    "mixed-support.json",
    "single-spike-order-three.json",
    "unit-step.json",
)
POWERS_DOC = {
    "genus": 1,
    "seifert_matrix": [[0, 2], [1, 0]],
    "v2": [1, 0],
    "v3": [0, 1],
    "lk23": 1,
}
ERROR_INPUTS = {
    "non-utf8.json": b'{"gamma": [1, 2, 3], "name": "\xff"}',
    "truncated.json": b'{"genus": 1,\n  "seifert_matrix": [[0, 2], [1, 0]\n',
    "not-an-object.json": b"[1, 2, 3]\n",
    "det-four.json": json.dumps({**POWERS_DOC, "seifert_matrix": [[0, 2], [0, 0]]}).encode(),
    "ragged.json": json.dumps({**POWERS_DOC, "seifert_matrix": [[0, 1], [0]]}).encode(),
    "presentation.json": json.dumps(POWERS_DOC).encode(),
    "sequence.json": json.dumps({"gamma": [1, 3, 0, 0, 0]}).encode(),
    "short.json": json.dumps({"gamma": [1, 2]}).encode(),
}
# h's unreduced pair here is (4 - 8t + 5t^2 - t^3)/(4 - 4t + t^2), whose
# common factor (2 - t)^2 the certificate mod p cannot rule out, so RatFn
# reduces it by Euclid over Q to h = 1 - t.
COMMON_FACTOR_DOC = {
    "genus": 2,
    "seifert_matrix": [[-1, -1, 1, 0], [-2, -2, -1, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    "v2": [-1, -1, 1, 0],
    "v3": [2, 3, 0, 0],
    "lk23": 0,
}
GENERATED = tuple(
    (seed, genus, f"gen-s{seed}-g{genus}.json") for genus in range(1, 5) for seed in range(5)
)

# order 111 is the first at which swap_seq searches far enough for the form
# (1 + x)^0 P/C of this genus-1 sequence, with 3 terms in P and C; adding +-1
# to every entry leaves a sequence without a short form
SWAP_SEQUENCE = gamma_seq(gen_presentation(1, 1, 3), 111).entries
_noise = random.Random(1)
SWAP_INPUTS = {
    "swap-form.json": list(SWAP_SEQUENCE),
    "swap-formless.json": [e + _noise.choice((-1, 1)) for e in SWAP_SEQUENCE],
}

# equiv -n 300 on presentations whose sequences lead with +-1, so that every
# exponent is admissible, at |n| = 21 to 58, around the count at which
# apply_shift expands a carried form instead of stepping (2|P| + 2|C| + 10:
# 22 / 30 / 38 at genus 1 / 2 / 3): pairs a-b and c-d, found by search,
# agree past the index the exponent is read from; the others are generated
# presentations against copies with v3 scaled
def _presentation_doc(genus, v, v2, v3, lk23):
    return {"genus": genus, "seifert_matrix": v, "v2": v2, "v3": v3, "lk23": lk23}


def _scaled_doc(seed, genus, factor, lk23):
    p = gen_presentation(seed, genus, 3)
    return _presentation_doc(genus, p.seifert_matrix, p.v2, [factor * e for e in p.v3], lk23)


EQUIV_INPUTS = {
    "pair-a.json": _presentation_doc(1, [[5, 1], [0, 2]], [-3, 1], [3, -6], 1),
    "pair-b.json": _presentation_doc(1, [[10, -1], [-2, -2]], [6, 5], [1, -2], 1),
    "pair-c.json": _presentation_doc(1, [[-2, -2], [-3, 0]], [-4, 1], [-3, 3], 1),
    "pair-d.json": _presentation_doc(1, [[3, 0], [-1, -5]], [0, -4], [3, 4], 1),
    "g2.json": _scaled_doc(0, 2, 1, -1),
    "g2-times-4.json": _scaled_doc(0, 2, 4, -1),
    "g3.json": _scaled_doc(6, 3, 1, 1),
    "g3-times-3.json": _scaled_doc(6, 3, 3, 1),
}
EQUIV_PAIRS = (
    ("pair-a.json", "pair-b.json"),
    ("pair-b.json", "pair-a.json"),
    ("pair-c.json", "pair-d.json"),
    ("g2.json", "g2-times-4.json"),
    ("g2-times-4.json", "g2.json"),
    ("g3.json", "g3-times-3.json"),
)


def _fixture_commands():
    for p in PRESENTATION_FIXTURES:
        yield ("gamma", "-n", "12", p)
        yield ("h", p)
        yield ("h", "--expand", "12", p)
        yield ("equiv", "-n", "12", p, p)
    for s in SEQUENCE_FIXTURES:
        yield ("swap", s)
        yield ("milnor", s)
        yield ("beta", "-k", "1", s)
        yield ("beta", "-k", "2", s)
        yield ("mixed", "-p", "1", "-l", "1", s)
        yield ("mixed", "-p", "0", "-l", "3", s)
        for other in SEQUENCE_FIXTURES:
            yield ("equiv", "-n", "4", s, other)


def _generated_commands():
    for _, _, name in GENERATED:
        yield ("h", "--expand", "12", name)
        yield ("gamma", "-n", "12", name)


def _common_factor_commands():
    yield ("h", "common-factor.json")
    yield ("h", "--expand", "12", "common-factor.json")


def _error_commands():
    yield ("gamma", "-n", "3", "absent.json")
    yield ("milnor", "non-utf8.json")
    yield ("gamma", "-n", "3", "truncated.json")
    yield ("milnor", "not-an-object.json")
    yield ("gamma", "-n", "3", "sequence.json")
    yield ("swap", "presentation.json")
    yield ("h", "det-four.json")
    yield ("h", "ragged.json")
    yield ("equiv", "sequence.json", "presentation.json")
    yield ("equiv", "presentation.json", "presentation.json")
    yield ("equiv", "short.json", "sequence.json")
    yield ("equiv", "-n", "3", "short.json", "sequence.json")
    yield ("gamma", "-n", "-1", "presentation.json")
    yield ("h", "--expand", "-1", "presentation.json")
    yield ("equiv", "-n", "-1", "presentation.json", "presentation.json")
    yield ("equiv", "-n", "-1", "sequence.json", "sequence.json")
    yield ("beta", "-k", "0", "sequence.json")
    yield ("beta", "-k", "3", "sequence.json")
    yield ("mixed", "-p", "-1", "-l", "1", "sequence.json")
    yield ("mixed", "-p", "2", "-l", "3", "sequence.json")
    yield ("gamma", "-n", str(10**20), "presentation.json")
    yield ("h", "--expand", str(10**20), "presentation.json")
    yield ("equiv", "-n", str(10**20), "presentation.json", "presentation.json")


USAGE_ERRORS = (
    (),
    ("gamma", "presentation.json"),
    ("gamma", "-n", "x", "presentation.json"),
    ("beta", "sequence.json"),
    ("nosuch", "sequence.json"),
)


def _write_generated(directory: Path) -> None:
    for seed, genus, name in GENERATED:
        p = gen_presentation(seed, genus, 3)
        doc = {
            "genus": p.genus,
            "seifert_matrix": [list(row) for row in p.seifert_matrix],
            "v2": list(p.v2),
            "v3": list(p.v3),
            "lk23": p.lk23,
        }
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def _run(command, directory: Path):
    argv = [str(directory / a) if a.endswith(".json") else a for a in command]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().replace(str(directory), "<dir>")


def _transcripts(commands, directory: Path) -> dict:
    out = {}
    for command in commands:
        for prefix in ((), ("--machine",)):
            code, stdout, _ = _run((*prefix, *command), directory)
            out[" ".join((*prefix, *command))] = {"exit": code, "stdout": stdout}
    return out


def _generated_transcripts() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        _write_generated(Path(tmp))
        return _transcripts(_generated_commands(), Path(tmp))


def _common_factor_transcripts() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "common-factor.json").write_text(json.dumps(COMMON_FACTOR_DOC), encoding="utf-8")
        return _transcripts(_common_factor_commands(), directory)


def _swap_transcripts() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, entries in SWAP_INPUTS.items():
            (directory / name).write_text(json.dumps({"gamma": entries}), encoding="utf-8")
        return _transcripts([("swap", name) for name in SWAP_INPUTS], directory)


def _presentation_equiv_transcripts() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, doc in EQUIV_INPUTS.items():
            (directory / name).write_text(json.dumps(doc), encoding="utf-8")
        return _transcripts([("equiv", "-n", "300", a, b) for a, b in EQUIV_PAIRS], directory)


def _selftest_transcripts() -> dict:
    return _transcripts([("selftest",)], FIXTURES)


def _failing_selftest_transcripts() -> dict:
    # a fixture directory that does not exist, and a copy of the corpus in
    # which the powers-of-two link has lk23 = 2, so its gamma_0 is wrong
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        corrupt = directory / "corrupt"
        shutil.copytree(FIXTURES, corrupt)
        powers = corrupt / "powers-of-two-link.json"
        doc = {**json.loads(powers.read_text(encoding="utf-8")), "lk23": 2}
        powers.write_text(json.dumps(doc), encoding="utf-8")
        for name in ("missing", "corrupt"):
            for prefix in ((), ("--machine",)):
                command = (*prefix, "selftest", "--fixtures", str(directory / name))
                code, stdout, stderr = _run(command, directory)
                key = " ".join(command).replace(str(directory), "<dir>")
                stdout = stdout.replace(str(directory), "<dir>")
                out[key] = {"exit": code, "stdout": stdout, "stderr": stderr}
    return out


def _error_transcripts() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, content in ERROR_INPUTS.items():
            (directory / name).write_bytes(content)
        for command in _error_commands():
            for prefix in ((), ("--machine",)):
                code, stdout, stderr = _run((*prefix, *command), directory)
                key = " ".join((*prefix, *command))
                out[key] = {"exit": code, "stdout": stdout, "stderr": stderr}
        for command in USAGE_ERRORS:
            out["usage: " + " ".join(command)] = {"exit": _run(command, directory)[0]}
    return out


def _record() -> dict:
    return {
        "common-factor": _common_factor_transcripts(),
        "errors": _error_transcripts(),
        "fixtures": _transcripts(_fixture_commands(), FIXTURES),
        "generated": _generated_transcripts(),
        "presentation-equiv": _presentation_equiv_transcripts(),
        "selftest": _selftest_transcripts(),
        "selftest-failing": _failing_selftest_transcripts(),
        "swap": _swap_transcripts(),
    }


def _mismatches(got: dict, expected: dict) -> list:
    assert got.keys() == expected.keys()
    return [key for key in got if got[key] != expected[key]]


def test_fixture_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_transcripts(_fixture_commands(), FIXTURES), golden["fixtures"]) == []


def test_generated_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_generated_transcripts(), golden["generated"]) == []


def test_common_factor_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_common_factor_transcripts(), golden["common-factor"]) == []


def test_presentation_equiv_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_presentation_equiv_transcripts(), golden["presentation-equiv"]) == []


def test_selftest_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_selftest_transcripts(), golden["selftest"]) == []


def test_failing_selftest_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_failing_selftest_transcripts(), golden["selftest-failing"]) == []


def test_swap_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_swap_transcripts(), golden["swap"]) == []


def test_error_transcripts():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    assert _mismatches(_error_transcripts(), golden["errors"]) == []


if __name__ == "__main__":
    DATA.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

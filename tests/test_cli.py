import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files as resource_files
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkgamma
from linkgamma import cli, gamma, polylin
from linkgamma.cli import main
from linkgamma.fileformat import InputFormatError, sequence_from_doc
from linkgamma.gamma import GammaSeq, gen_presentation

FIXTURES = Path(str(resource_files("linkgamma") / "fixtures"))
POWERS = str(FIXTURES / "powers-of-two-link.json")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- cmd: gamma


def test_gamma_powers_of_two(capsys):
    code, out, _ = run(capsys, "gamma", "-n", "5", POWERS)
    assert code == 0
    assert out.strip() == "1 1 2 4 8 16"


def test_gamma_constant_presentation(capsys, tmp_path):
    path = write(
        tmp_path,
        "const.json",
        {
            "genus": 1,
            "seifert_matrix": [[0, 1], [0, 0]],
            "v2": [0, 0],
            "v3": [1, 1],
            "lk23": 7,
        },
    )
    code, out, _ = run(capsys, "gamma", "-n", "2", path)
    assert code == 0
    assert out.strip() == "7 0 0"


def test_gamma_machine_output_reingests(capsys, tmp_path):
    code, out, _ = run(capsys, "--machine", "gamma", "-n", "4", POWERS)
    assert code == 0
    doc = json.loads(out)
    seq, name = sequence_from_doc(doc)
    assert seq == GammaSeq((1, 1, 2, 4, 8))
    assert name == "powers-of-two"
    # feeding it back through two swaps is the identity
    path = write(tmp_path, "roundtrip.json", doc)
    code, out, _ = run(capsys, "--machine", "swap", path)
    doc2 = json.loads(out)
    path2 = write(tmp_path, "roundtrip2.json", doc2)
    code, out, _ = run(capsys, "swap", path2)
    assert out.strip() == "1 1 2 4 8"


@pytest.mark.parametrize("machine", [False, True], ids=["plain", "machine"])
def test_gamma_prints_entries_over_the_digit_limit(capsys, machine):
    limit = sys.get_int_max_str_digits()
    flags = ["--machine"] if machine else []
    code, out, err = run(capsys, *flags, "gamma", "-n", "14400", POWERS)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    last = json.loads(out, parse_int=str)["gamma"][-1] if machine else out.split()[-1]
    sys.set_int_max_str_digits(0)
    try:
        assert last == str(2**14399)
    finally:
        sys.set_int_max_str_digits(limit)


def test_gamma_rejects_sequence_file(capsys):
    code, _, err = run(capsys, "gamma", "-n", "3", str(FIXTURES / "unit-step.json"))
    assert code == 2
    assert "presentation" in err


def test_malformed_json_gives_line_diagnostics(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"genus": 1,\n  "seifert_matrix": [[0, 2], [1, 0]\n}', encoding="utf-8")
    code, _, err = run(capsys, "gamma", "-n", "3", str(path))
    assert code == 2
    assert "line" in err


def test_bad_field_type_names_the_field(capsys, tmp_path):
    path = write(
        tmp_path,
        "badfield.json",
        {"genus": 1, "seifert_matrix": [[0, 2], [1, 0]], "v2": [1, "x"], "v3": [0, 1], "lk23": 1},
    )
    code, _, err = run(capsys, "gamma", "-n", "3", path)
    assert code == 2
    assert "v2[1]" in err


def test_invalid_presentation_lists_violations(capsys, tmp_path):
    path = write(
        tmp_path,
        "symmetric.json",
        {"genus": 1, "seifert_matrix": [[0, 1], [1, 0]], "v2": [1, 0], "v3": [0, 1], "lk23": 0},
    )
    code, _, err = run(capsys, "gamma", "-n", "3", path)
    assert code == 2
    assert "det(V - V^T)" in err


def test_ragged_matrix_names_the_row(capsys, tmp_path):
    path = write(
        tmp_path,
        "ragged.json",
        {"genus": 1, "seifert_matrix": [[0, 1], [0]], "v2": [1, 0], "v3": [0, 1], "lk23": 0},
    )
    code, out, err = run(capsys, "h", path)
    assert code == 2 and out == ""
    assert "row 1 has length 1, expected 2" in err


def test_an_empty_sequence_exits_2(capsys, tmp_path):
    with pytest.raises(InputFormatError, match="field 'gamma': array must be nonempty"):
        sequence_from_doc({"gamma": []})
    path = write(tmp_path, "empty.json", {"gamma": []})
    for argv in (["swap", path], ["--machine", "milnor", path], ["equiv", path, path]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "array must be nonempty" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "gamma", "-n", "3", str(tmp_path / "absent.json"))
    assert code == 2
    assert "absent.json" in err


DEPTH = 2 * sys.getrecursionlimit()


@pytest.mark.parametrize(
    "content, diagnostic",
    [
        (b'{"gamma": [1, 2, 3], "name": "\xff"}', "UTF-8"),
        (('{"gamma": ' + "[" * DEPTH + "]" * DEPTH + "}").encode(), "nested too deeply"),
        (b'{"gamma": [1, ' + b"9" * (sys.get_int_max_str_digits() + 1) + b"]}", "digits"),
    ],
    ids=["non-utf8", "deep-nesting", "over-digit-limit"],
)
def test_undecodable_document_exits_2(capsys, tmp_path, content, diagnostic):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "milnor", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "bad.json" in err and diagnostic in err


# --------------------------------------------------------------------- cmd: h


def test_h_output(capsys):
    code, out, _ = run(capsys, "h", POWERS)
    assert code == 0
    assert out.strip() == "(-2 + t)/(-3 + 2t)"


def test_h_expansion_flag(capsys):
    code, out, _ = run(capsys, "h", "--expand", "4", POWERS)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["(-2 + t)/(-3 + 2t)", "1 1 2 4 8"]


def test_h_constant(capsys, tmp_path):
    path = write(
        tmp_path,
        "const.json",
        {
            "genus": 1,
            "seifert_matrix": [[0, 1], [0, 0]],
            "v2": [0, 0],
            "v3": [1, 1],
            "lk23": 7,
        },
    )
    code, out, _ = run(capsys, "h", path)
    assert code == 0
    assert out.strip() == "7"


def test_h_machine(capsys):
    code, out, _ = run(capsys, "--machine", "h", "--expand", "3", POWERS)
    assert code == 0
    doc = json.loads(out)
    assert doc["num"] == [-2, 1]
    assert doc["den"] == [-3, 2]
    assert doc["expansion"] == [1, 1, 2, 4]


@pytest.mark.parametrize(
    "argv, files",
    [
        (("gamma", "-n", "5", POWERS), 1),
        (("h", "--expand", "5", POWERS), 1),
        (("equiv", "-n", "5", POWERS, POWERS), 2),
    ],
    ids=["gamma", "h", "equiv"],
)
def test_each_presentation_is_validated_once(capsys, argv, files):
    # counts calls of the function itself, however a caller has bound it
    target = gamma.validate.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is target

    sys.setprofile(profile)
    try:
        code, _, _ = run(capsys, *argv)
    finally:
        sys.setprofile(None)
    assert (code, calls) == (0, files)


def count_calls(func, thunk):
    # calls of the function itself, however a caller has bound it
    target = func.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is target

    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(None)
    return result, calls


def test_equiv_checks_both_presentations_before_any_sequence(capsys, tmp_path):
    bad = write(tmp_path, "bad.json", {
        "genus": 1, "seifert_matrix": [[0, 2], [0, 0]], "v2": [1, 0], "v3": [0, 1], "lk23": 0,
    })
    (code, _, err), calls = count_calls(
        polylin.mat_vec, lambda: run(capsys, "equiv", "-n", "5000", POWERS, bad)
    )
    assert code == 2 and err.startswith(f"error: {bad}: invalid presentation")
    # forming A^-1 and B for the valid file is all the matrix work that ran
    valid = cli._read(POWERS, "presentation")
    _, preparing = count_calls(polylin.mat_vec, lambda: gamma.prepare(valid))
    assert calls == preparing


# ----------------------------------------------------------------- cmd: equiv


def test_equiv_sequences_exit_codes(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"gamma": [1, 3, 0, 0, 0]})
    b = write(tmp_path, "b.json", {"gamma": [1, 4, 3, 0, 0]})
    c = write(tmp_path, "c.json", {"gamma": [1, 3, 1, 0, 0]})
    z = write(tmp_path, "z.json", {"gamma": [0, 0, 0, 0, 0]})

    code, out, _ = run(capsys, "equiv", a, b)
    assert (code, out.strip()) == (0, "equivalent(1)")
    code, out, _ = run(capsys, "equiv", c, b)
    assert (code, out.strip()) == (4, "distinct(2)")
    code, out, _ = run(capsys, "equiv", z, z)
    assert (code, out.strip()) == (5, "indeterminate")


def test_equiv_presentations_need_order(capsys, tmp_path):
    code, _, err = run(capsys, "equiv", POWERS, POWERS)
    assert code == 2
    assert "-n" in err
    code, out, _ = run(capsys, "equiv", "-n", "6", POWERS, POWERS)
    assert (code, out.strip()) == (0, "equivalent(0)")


def test_equiv_order_mismatch(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"gamma": [1, 2]})
    b = write(tmp_path, "b.json", {"gamma": [1, 2, 3]})
    code, _, err = run(capsys, "equiv", a, b)
    assert code == 2
    assert "order mismatch" in err
    # explicit truncation reconciles them
    code, out, _ = run(capsys, "equiv", "-n", "1", a, b)
    assert (code, out.strip()) == (0, "equivalent(0)")


def test_equiv_names_the_invalid_presentation(capsys, tmp_path):
    bad = write(
        tmp_path,
        "det-four.json",
        {"genus": 1, "seifert_matrix": [[0, 2], [0, 0]], "v2": [1, 0], "v3": [0, 1], "lk23": 1},
    )
    code, out, err = run(capsys, "equiv", "-n", "3", POWERS, bad)
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: invalid presentation: det(V - V^T) = 4, expected 1\n"


def test_equiv_mixed_kinds_rejected(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"gamma": [1, 2]})
    code, _, err = run(capsys, "equiv", a, POWERS)
    assert code == 2
    assert "both" in err


def test_equiv_machine(capsys, tmp_path):
    a = write(tmp_path, "a.json", {"gamma": [1, 3, 0, 0, 0]})
    b = write(tmp_path, "b.json", {"gamma": [1, 4, 3, 0, 0]})
    code, out, _ = run(capsys, "--machine", "equiv", a, b)
    assert code == 0
    assert json.loads(out) == {"verdict": "equivalent", "shift": 1}


# ------------------------------------------------- cmd: beta / swap / mixed /
# milnor


def test_beta_command(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [0, 0, 1, 0, 0]})
    code, out, _ = run(capsys, "beta", "-k", "1", path)
    assert (code, out.strip()) == (0, "-1")


def test_beta_insufficient_order_reports_minimum(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [0, 0, 1]})
    code, _, err = run(capsys, "beta", "-k", "2", path)
    assert code == 2
    assert "4" in err


def test_swap_command(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [0, 1, 0, 0]})
    code, out, _ = run(capsys, "swap", path)
    assert (code, out.strip()) == (0, "0 -1 1 -1")


def test_mixed_command(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [0, 0, 1, 0, 0]})
    code, out, _ = run(capsys, "mixed", "-p", "1", "-l", "1", path)
    assert (code, out.strip()) == (0, "-1")
    code, _, err = run(capsys, "mixed", "-p", "3", "-l", "3", path)
    assert code == 2
    assert "6" in err


def test_milnor_command(capsys):
    code, out, _ = run(capsys, "milnor", str(FIXTURES / "single-spike-order-three.json"))
    assert code == 0
    assert out.strip().splitlines() == ["0 0 0", "1 0 0", "2 0 0", "3 0 1", "4 1 0"]


def test_milnor_machine(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [2, 4, 7]})
    code, out, _ = run(capsys, "--machine", "milnor", path)
    assert code == 0
    assert json.loads(out)["residues"] == [
        {"index": 0, "modulus": 0, "residue": 2},
        {"index": 1, "modulus": 2, "residue": 0},
        {"index": 2, "modulus": 2, "residue": 1},
    ]


def test_machine_flag_after_subcommand(capsys, tmp_path):
    path = write(tmp_path, "s.json", {"gamma": [0, 1, 0, 0]})
    code, out, _ = run(capsys, "swap", "--machine", path)
    assert code == 0
    assert json.loads(out)["gamma"] == [0, -1, 1, -1]


# -------------------------------------------------------------- cmd: selftest


def test_selftest_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: PASS" in first
    code, second, _ = run(capsys, "selftest")
    assert first == second


def test_selftest_names_corrupted_fixture(capsys, tmp_path):
    for f in FIXTURES.iterdir():
        shutil.copy(f, tmp_path / f.name)
    target = tmp_path / "single-spike-order-three.json"
    doc = json.loads(target.read_text())
    doc["gamma"][3] = -doc["gamma"][3]
    target.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "selftest", "--fixtures", str(tmp_path))
    assert code == 1
    assert "single-spike-order-three.json" in out
    assert "selftest: FAIL" in out


def test_selftest_machine(capsys):
    code, out, _ = run(capsys, "--machine", "selftest")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(row["passed"] == row["total"] for row in doc["suites"])


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "-n", str(10**20), POWERS),
        ("h", "--expand", str(10**20), POWERS),
        ("equiv", "-n", str(10**20), POWERS, POWERS),
    ],
    ids=["gamma", "h", "equiv"],
)
def test_order_too_large_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "order must be less than" in err
    assert "Traceback" not in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(pres, order):
        raise MemoryError

    monkeypatch.setattr(cli, "gamma_seq", exhausted)
    code, out, err = run(capsys, "gamma", "-n", "5", POWERS)
    assert (code, out, err) == (2, "", "error: out of memory\n")


class ClosedPipe(StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stderr_open", [True, False])
def test_closed_stdout_exits_2_and_leaves_the_streams(monkeypatch, stderr_open):
    stdout, stderr = ClosedPipe(), StringIO() if stderr_open else ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["gamma", "-n", "5", POWERS]) == 2
    assert (sys.stdout, sys.stderr) == (stdout, stderr)
    if stderr_open:
        assert stderr.getvalue() == "error: stdout closed before the output was written\n"


def test_usage_error_exits_2(capsys):
    assert main(["gamma"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------ parser reuse


def test_main_builds_its_parser_at_most_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ("gamma", "-n", "5", POWERS),
        ("--machine", "h", POWERS),
        ("gamma",),
        ("milnor", POWERS),
        ("gamma", "-n", "3", POWERS),
    ):
        run(capsys, *argv)
    assert built.count("linkgamma") <= 1


def fresh(*argv):
    # the same command in a new interpreter, whose parser is built for it
    env = dict(os.environ)
    src = str(Path(linkgamma.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "linkgamma.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize(
    "first",
    [
        ("--machine", "gamma", "-n", "5", POWERS),
        ("gamma",),
        ("--help",),
        ("gamma", "--help"),
    ],
    ids=["machine", "usage-error", "help", "command-help"],
)
def test_a_call_leaves_no_state_behind(capsys, monkeypatch, first):
    # help is wrapped to COLUMNS, so both sides read the same width
    monkeypatch.setenv("COLUMNS", "80")
    then = ("gamma", "-n", "5", POWERS)
    assert run(capsys, *first) == fresh(*first)
    assert run(capsys, *then) == fresh(*then)


# ------------------------------------------------ exit codes on any document

INTS = st.one_of(st.integers(-3, 3), st.sampled_from([10**30, -(10**30)]))
NOT_INTS = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none())
JUNK = st.one_of(
    INTS,
    NOT_INTS,
    st.lists(st.one_of(INTS, NOT_INTS), max_size=4),
    st.lists(st.lists(st.one_of(INTS, NOT_INTS), max_size=4), max_size=4),
    st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(INTS, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.dictionaries(st.text(max_size=2), INTS, max_size=2),
)
MISSING = object()


@st.composite
def presentation_docs(draw):
    p = gen_presentation(draw(st.integers(0, 9)), draw(st.integers(1, 3)), 3)
    doc = {
        "genus": p.genus,
        "seifert_matrix": [list(row) for row in p.seifert_matrix],
        "v2": list(p.v2),
        "v3": list(p.v3),
        "lk23": p.lk23,
    }
    return corrupt(draw, doc)


@st.composite
def sequence_docs(draw):
    return corrupt(draw, {"gamma": draw(st.lists(INTS, min_size=1, max_size=8))})


def corrupt(draw, doc):
    for key in draw(st.one_of(st.just(()), st.sets(st.sampled_from([*doc, "name"])))):
        value = draw(st.one_of(JUNK, st.just(MISSING)))
        if value is MISSING:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


# orders from 9 up to sys.maxsize - 1 are valid and would run that long
HUGE = st.sampled_from([-(10**20), sys.maxsize, 10**20])
ORDERS = st.one_of(st.integers(-3, 8), HUGE).map(str)
INDICES = st.one_of(st.integers(-3, 8), HUGE, st.integers()).map(str)
COMMANDS = st.one_of(
    st.tuples(st.just("gamma"), st.just("-n"), ORDERS, st.just("A")),
    st.tuples(st.just("h"), st.just("A")),
    st.tuples(st.just("h"), st.just("--expand"), ORDERS, st.just("A")),
    st.tuples(st.just("equiv"), st.just("A"), st.just("B")),
    st.tuples(st.just("equiv"), st.just("-n"), ORDERS, st.just("A"), st.just("B")),
    st.tuples(st.just("beta"), st.just("-k"), INDICES, st.just("A")),
    st.tuples(st.just("mixed"), st.just("-p"), INDICES, st.just("-l"), INDICES, st.just("A")),
    st.tuples(st.just("swap"), st.just("A")),
    st.tuples(st.just("milnor"), st.just("A")),
)
# a nested one_of would be flattened into DOCUMENTS' branches, so the
# document that is not an object is one strategy
DOCUMENTS = st.one_of(presentation_docs(), sequence_docs(), st.lists(INTS, max_size=3))


@settings(max_examples=200, deadline=None)
@given(a=DOCUMENTS, b=DOCUMENTS, command=COMMANDS, machine=st.booleans())
def test_every_document_gets_a_documented_exit(a, b, command, machine):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"A": Path(tmp, "a.json"), "B": Path(tmp, "b.json")}
        paths["A"].write_text(json.dumps(a), encoding="utf-8")
        paths["B"].write_text(json.dumps(b), encoding="utf-8")
        argv = ["--machine"] * machine + [str(paths.get(arg, arg)) for arg in command]
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 4, 5)
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
    else:
        assert err.getvalue() == ""

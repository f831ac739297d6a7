import json
import shutil
import sys
from importlib.resources import files as resource_files
from pathlib import Path

import pytest

from linkgamma import cli
from linkgamma.cli import main
from linkgamma.fileformat import sequence_from_doc
from linkgamma.gamma import GammaSeq

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


def test_usage_error_exits_2(capsys):
    assert main(["gamma"]) == 2
    capsys.readouterr()

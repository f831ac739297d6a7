"""Golden CLI transcripts: the exact stdout and exit code of every command
that applies to a bundled fixture, and of ``h --expand 12`` and
``gamma -n 12`` on seeded generated presentations, plain and ``--machine``.

The recorded transcripts live in ``golden_cli.json`` next to this file.
After an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from contextlib import redirect_stdout
from importlib.resources import files as resource_files
from io import StringIO
from pathlib import Path

from linkgamma.cli import main
from linkgamma.gamma import gen_presentation

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
GENERATED = tuple(
    (seed, genus, f"gen-s{seed}-g{genus}.json") for genus in range(1, 5) for seed in range(5)
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


def _transcripts(commands, directory: Path) -> dict:
    out = {}
    for command in commands:
        for prefix in ((), ("--machine",)):
            argv = [*prefix, *(str(directory / a) if a.endswith(".json") else a for a in command)]
            buf = StringIO()
            with redirect_stdout(buf):
                code = main(argv)
            out[" ".join((*prefix, *command))] = {"exit": code, "stdout": buf.getvalue()}
    return out


def _generated_transcripts() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        _write_generated(Path(tmp))
        return _transcripts(_generated_commands(), Path(tmp))


def _record() -> dict:
    return {
        "fixtures": _transcripts(_fixture_commands(), FIXTURES),
        "generated": _generated_transcripts(),
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


if __name__ == "__main__":
    DATA.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")

"""Tests of the benchmark itself, at toy size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = {
    "h-genus-ladder": {"genera": (1, 2, 3), "pool": 2},
    "long-sequence": {"order": 40, "max_shift": 30, "swap_order": 12, "pool": 3},
    "cli-small": {"pool": 14},
}
SECONDS = 0.3


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(TOY)
    assert units("end_to_end") == run.END_TO_END_UNITS
    assert units("per_layer") == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", list(TOY))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, report = run.run_workload(workload, 7, SECONDS, trace, TOY[workload])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["seed"] == 7 and report["failed_frac"]["value"] == 0
    if trace:
        spans = Path(run.ROOT, report["spans_file"]).read_text(encoding="utf-8").splitlines()
        assert len(spans) == report["spans"] + 1
    else:
        assert report["item_ms_tail"]["samples"] == result["attempted"]
        assert ("scaling_exp" in report) == (workload == "h-genus-ladder")
        assert ("known_defects" in report) == (workload == "cli-small")


def _bump(values, index):
    values[index] += 1


CORRUPTIONS = {
    "h-genus-ladder": lambda wl: _bump(wl.cases[1][0][2], 3),
    "long-sequence": lambda wl: setattr(wl.cases[0], "shift", wl.cases[0].shift + 1),
    "cli-small": lambda wl: setattr(wl.commands[0], "want_code", 4),
}


@pytest.mark.parametrize("workload", list(TOY))
def test_a_wrong_expected_value_is_counted_as_failed(workload):
    host = run.HostSpeed()
    wl, setup = run.set_up(workload, 7, host, TOY[workload])
    CORRUPTIONS[workload](wl)
    result, report = run.measure_timed(wl, host, setup, SECONDS)
    assert result["failed"] >= 1 and not result["correct"]
    assert report["failed_frac"]["value"] == result["failed"] / result["attempted"] > 0
    assert report["failures"]


def test_reference_calls_are_timed_cached_and_copied():
    ref = workloads.TimedReference()
    first = ref.skew([[1, 2], [0, 1]])
    first[0][0] = 99
    assert ref.skew([[1, 2], [0, 1]]) == [[0, 2], [-2, 0]]
    assert ref.seconds > 0


def test_tracer_wraps_every_binding_and_restores_it():
    lg = run.load_program()
    original = lg.polylin.det
    with tracing.Tracer() as tracer:
        assert lg.gamma.det is lg.polylin.det is not original
        lg.gamma.validate(lg.gamma.gen_presentation(1, 2, 3))
    assert lg.gamma.det is original and lg.polylin.det is original
    (validate,) = [s for s in tracer.spans if s[2] == "gamma.validate"]
    dets = [s for s in tracer.spans if s[2] == "polylin.det"]
    assert dets and all(s[1] == validate[0] for s in dets)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, tracing.NO_PARENT, "a", 0, 100, None),
        (1, 0, "b", 10, 40, None),
        (2, 1, "c", 15, 25, None),
        (3, 0, "b", 50, 60, None),
    ]
    stats, _ = tracing.summarize(spans)
    assert stats["a"]["self_ns"] == 60
    assert stats["b"]["self_ns"] == 30 and stats["b"]["calls"] == 2
    assert stats["c"]["self_ns"] == 10


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

"""Benchmark of linkgamma on fixed-seed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md): ``h-genus-ladder``, ``long-sequence``,
``cli-small``.  The set-up (import, input generation, warm-up) runs
:data:`SETUP_REPEATS` times and ``setup_s`` is the median; the time spent
computing expected values in :mod:`reference` is left out of it.  Then:

``--trace 0``
    items run back to back, untraced, for S seconds (whole rounds); the
    end-to-end metrics are printed.
``--trace 1``
    items run untraced for S/2 seconds, then the same items run again with
    every public function of the program wrapped (see tracing.py); the
    per-layer metrics are printed and the spans are written to
    ``perfbench/out/``.

Times are scaled to a reference host speed (see :class:`HostSpeed`); the
raw values are in the report.  Every item's outputs are checked.  The
second-to-last line of stdout is a JSON report with details (raw values,
tail percentile and sample count, per-genus rows, failing items); the last
line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

import tracing  # noqa: E402
from workloads import WORKLOADS, reference  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
SPAWN_REPEATS = 7
MAX_REPORTED_FAILURES = 20
PROBE_EVERY_S = 0.2
PROBE_REF_MS = 1.0
PROBE_EXPONENT = 0.75
_PROBE_BASE = 7 ** 700

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class HostSpeed:
    """How fast the host runs the interpreter during this run.

    The machine is shared: the same pure-Python loop takes from 0.8 to 1.3
    times its median over one-second windows, and the median itself drifts
    by half over minutes, which swamps any change to the program.  So the
    runner times a fixed piece of integer work (a probe of about a
    millisecond) between items, at most every PROBE_EVERY_S, and before and
    after each set-up.  The workloads slow down less than the probe does:
    over ten-run sets of each workload, the least-squares slope of log run
    time on log median probe time was 0.4 to 1.1, and of the exponents tried
    (0, 0.25, 0.5, 0.6, 0.75, 0.9, 1) 0.75 gave the smallest largest spread
    over two such sets of all three workloads.  So ``scale()`` is
    (PROBE_REF_MS / median probe time) ** PROBE_EXPONENT, and a time
    multiplied by it is an estimate of the time on a host whose probe takes
    PROBE_REF_MS.  A set-up lasts a fraction of a second, over which the
    host's speed can be far from the run's median, so each set-up is scaled
    by ``scale_at`` the mean of the two probes around it instead.  The probe
    time is not part of any item time.
    """

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def probe(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc = (acc + _PROBE_BASE * i) % (_PROBE_BASE + 12345)
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self._last - t0

    def maybe_probe(self):
        """Probe if PROBE_EVERY_S has passed; return the seconds spent."""
        if time.perf_counter() - self._last < PROBE_EVERY_S:
            return 0.0
        return self.probe()

    @staticmethod
    def scale_at(probe_s):
        return (PROBE_REF_MS / (1e3 * probe_s)) ** PROBE_EXPONENT

    def scale(self):
        return self.scale_at(statistics.median(self.samples))

    def report(self):
        return {"probes": len(self.samples), "probe_ms_p50": 1e3 * statistics.median(self.samples),
                "probe_ref_ms": PROBE_REF_MS, "exponent": PROBE_EXPONENT, "scale": self.scale()}


def load_program():
    """Import linkgamma afresh, so that every set-up pays for the import."""
    for name in [k for k in sys.modules if k == "linkgamma" or k.startswith("linkgamma.")]:
        del sys.modules[name]
    importlib.import_module("linkgamma")
    importlib.import_module("linkgamma.cli")
    names = ("polylin", "exactnum", "gamma", "transforms", "equivalence", "milnor",
             "fileformat", "cli")
    return SimpleNamespace(**{n: sys.modules[f"linkgamma.{n}"] for n in names})


def set_up(workload, seed, host, sizes=None, in_process=False):
    """Build the workload :data:`SETUP_REPEATS` times; return the last one
    and the median set-up time in seconds, ``(raw, scaled)``.  A set-up's
    time leaves out the reference values it computes: they are the
    benchmark's work, and after the first set-up they come from the cache."""
    cls = WORKLOADS[workload]
    kwargs = dict(sizes or {})
    if in_process:
        kwargs["in_process"] = True
    raw, scaled = [], []
    before = host.probe()
    for _ in range(SETUP_REPEATS):
        ref_s = reference.seconds
        t0 = time.perf_counter()
        wl = cls(load_program(), seed, **kwargs)
        wl.warmup()
        raw.append(time.perf_counter() - t0 - (reference.seconds - ref_s))
        after = host.probe()
        scaled.append(raw[-1] * host.scale_at((before + after) / 2))
        before = after
    reference.clear()
    return wl, (statistics.median(raw), statistics.median(scaled))


def _run_item(item, records, tracer=None):
    t0 = time.perf_counter()
    error = None
    try:
        if tracer is None:
            item.run()
        else:
            tracer.item(item.run)
    except Exception as exc:  # an item that raises is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    records.append((item, time.perf_counter() - t0, error))


def run_rounds(rounds, host, seconds=math.inf, tracer=None):
    """Run whole rounds until ``seconds`` have passed or ``rounds`` ends;
    return the records ``(item, seconds, error)``, the rounds run and the
    wall time without the probes."""
    records, done, probing = [], [], 0.0
    t0 = time.perf_counter()
    for rnd in rounds:
        for item in rnd:
            _run_item(item, records, tracer)
            probing += host.maybe_probe()
        done.append(rnd)
        if time.perf_counter() - t0 >= seconds:
            break
    return records, done, time.perf_counter() - t0 - probing


def tail(sorted_values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    ``(value, percentile)``; the maximum when there are too few samples."""
    n = len(sorted_values)
    if n <= TAIL_BEYOND:
        return sorted_values[-1], 100.0
    return sorted_values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def scaling_exponent(medians):
    """Least-squares slope of log(median item time) on log(n = 2g), g >= 2."""
    pts = [(math.log(2 * g), math.log(t)) for g, t in medians.items() if g >= 2]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _failures(records):
    return [f"{item.label}: {err}" for item, _, err in records if err is not None]


def _result(records, metrics, units):
    failed = sum(1 for *_, err in records if err is not None)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def measure_timed(wl, host, setup, seconds):
    """Run the items for ``seconds``; ``setup`` is ``(raw, scaled)`` set-up
    seconds from :func:`set_up`."""
    records, _, wall = run_rounds(wl.rounds(), host, seconds)
    times = sorted(t for _, t, _ in records)
    tail_s, tail_pct = tail(times)
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    raw = {
        "setup_s": setup[0],
        "items_per_s": len(records) / wall,
        "item_ms_p50": 1e3 * statistics.median(times),
        "item_ms_tail": 1e3 * tail_s,
    }
    scale = host.scale()
    metrics = {k: v / scale if k == "items_per_s" else v * scale for k, v in raw.items()}
    metrics["setup_s"] = setup[1]
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    failures = _failures(records)
    report = {
        "mode": "timed",
        "items": len(records),
        "wall_s": wall,
        "raw": raw,
        "host": host.report(),
        "item_ms_tail": {"value": metrics["item_ms_tail"], "unit": "ms",
                         "percentile": tail_pct, "samples": len(records)},
        "failed_frac": {"value": len(failures) / len(records), "unit": "ratio"},
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    if wl.fit_scaling:
        by_genus = {}
        for item, t, _ in records:
            by_genus.setdefault(item.group, []).append(t)
        medians = {g: statistics.median(ts) for g, ts in sorted(by_genus.items())}
        report["per_genus"] = [
            {"genus": g, "n": 2 * g, "items": len(by_genus[g]), "item_ms_p50": 1e3 * t * scale}
            for g, t in medians.items()
        ]
        report["scaling_exp"] = {"value": scaling_exponent(medians), "unit": "1",
                                 "fit": "log item_ms_p50 on log n, genus >= 2"}
    if hasattr(wl, "run_known_defects"):
        report["known_defects"] = wl.run_known_defects()
    return _result(records, metrics, END_TO_END_UNITS), report


def _spawn_ms(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=60)
    return 1e3 * (time.perf_counter() - t0)


def interpreter_floors(host):
    """Median wall time of ``python -c pass`` and of a fresh
    ``import linkgamma.cli`` minus that floor, in raw ms."""
    bare, imported = [], []
    for _ in range(SPAWN_REPEATS):
        bare.append(_spawn_ms(["-c", "pass"]))
        imported.append(_spawn_ms(["-c", "import linkgamma.cli"]))
        host.probe()
    floor = statistics.median(bare)
    return floor, statistics.median(imported) - floor


def measure_traced(wl, host, seed, seconds):
    untraced, rounds, wall_untraced = run_rounds(wl.rounds(), host, seconds / 2)
    with tracing.Tracer() as tracer:
        traced, _, wall_traced = run_rounds(rounds, host, tracer=tracer)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    interp_ms, import_ms = interpreter_floors(host)
    scale = host.scale()
    metrics = tracing.layer_metrics(tracer.spans, len(traced), interp_ms, import_ms,
                                    wall_traced / wall_untraced - 1, scale)
    stats, _ = tracing.summarize(tracer.spans)
    item_ns = stats[tracing.ITEM_SPAN]["incl_ns"]
    records = untraced + traced
    report = {
        "mode": "traced",
        "items": len(traced),
        "wall_untraced_s": wall_untraced,
        "wall_traced_s": wall_traced,
        "host": host.report(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "share_of_item_time": {
            name: {"calls": s["calls"], "self": s["self_ns"] / item_ns,
                   "inclusive": s["incl_ns"] / item_ns}
            for name, s in sorted(stats.items(), key=lambda kv: -kv[1]["incl_ns"])
        },
        "failed_frac": {"value": len(_failures(records)) / len(records), "unit": "ratio"},
        "failures": _failures(records)[:MAX_REPORTED_FAILURES],
    }
    return _result(records, metrics, tracing.PER_LAYER_UNITS), report


def run_workload(workload, seed, seconds, trace, sizes=None):
    """Set up and measure one workload; return ``(result, report)``."""
    host = HostSpeed()
    in_process = trace and WORKLOADS[workload].in_children
    wl, setup = set_up(workload, seed, host, sizes, in_process)
    if trace:
        result, report = measure_traced(wl, host, seed, seconds)
    else:
        result, report = measure_timed(wl, host, setup, seconds)
    report.update(workload=workload, seed=seed, seconds=seconds, setup_repeats=SETUP_REPEATS)
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linkgamma" / "__init__.py").is_file():
        print(f"perfbench: the program is missing: no {SRC / 'linkgamma'}", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

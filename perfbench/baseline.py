"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 \
        [--workload NAME ...] [--traced-seed 1] [--out perfbench/baseline.json]

Each (workload, seed) pair runs ``run.py`` in its own process, one after the
other.  For every end-to-end metric the summary gives the ten values, their
median and quartiles, and the spread: the distance between the first and
third quartile as a share of the median, as ``statistics.quantiles(v, n=4)``
gives them.  With ``--traced-seed`` each workload also gets one traced run,
whose per-layer metrics and time shares are kept.  The timed runs' reports
(raw values, tail percentile, per-genus rows, known defects, failing items)
are kept per seed, so the file records the seed every number came from, and
``outcome`` sums the failures of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def outcome(runs):
    """Failed items over attempted items across the runs, the failing items,
    and the known defects seen."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
            "failing_items": sorted({f for r in runs for f in r["report"]["failures"]}),
            "known_defects": sorted({d for r in runs for d in r["report"].get("known_defects", [])})}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count()},
        "seconds": args.seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs, metrics = [], {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            report, result = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, "elapsed_s": time.perf_counter() - t0,
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "report": report})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(workload, seed, {k: round(m["value"], 4) for k, m in result["metrics"].items()},
                  file=sys.stderr)
        entry = {"end_to_end": {k: {"unit": m["unit"], **summarize(m["values"])}
                                for k, m in metrics.items()},
                 "outcome": outcome(runs),
                 "runs": runs}
        if workload == "h-genus-ladder":
            entry["scaling_exp"] = summarize([r["report"]["scaling_exp"]["value"] for r in runs])
        if args.traced_seed is not None:
            report, result = run_once(workload, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": result["correct"],
                               "metrics": result["metrics"], "report": report}
        summary["workloads"][workload] = entry
        spreads = {k: round(v["spread"], 4) for k, v in entry["end_to_end"].items()}
        print(workload, "spread", spreads, file=sys.stderr)
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of one wall-clock workload.

benchmarks/perf/README.md asks a speed-up claim for "ten alternating
pairs"; this is the command.  Given two checkouts of this repository it
runs each checkout's own

    python3 benchmarks/perf/run.py --workload W --seed S --seconds 8 --trace 0

N times per side, one run at a time, parent first in even pairs and
change first in odd ones, and prints for every end-to-end metric each
side's median and quartiles, the change in the median, how many pairs
the change won (ties count for neither side), and whether the medians
are further apart than the parent's own interquartile spread.  A gain
may be claimed only on a metric marked ``claimable``: at least nine
tenths of the pairs won *and* the medians apart by more than that spread.

    python3 benchmarks/wall_pairs.py ../parent . \\
        --workload direct_resident --pairs 10 --seed 2014

``--gate METRIC`` makes the run a one-sided sign test on that metric:
the command exits 1 when the change lost every pair *and* its median is
worse than the parent's by more than the parent's interquartile spread
(losing all of 7 pairs by chance has p = 1/128).  CI's ``wall-sign``
job runs it against the merge base.

Standard library only; imports nothing from ``repro`` or from
``benchmarks/perf`` (it only runs their command).  Metric names,
directions and the run length come from the change's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> Dict:
    """One untraced run of ``workload`` in ``checkout``; the record is
    the last line the command prints."""
    with tempfile.TemporaryDirectory(prefix="wall_pairs_") as out:
        done = subprocess.run(
            [
                sys.executable, os.path.join("benchmarks", "perf", "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds), "--trace", "0", "--out", out,
            ],
            cwd=checkout, capture_output=True, text=True,
        )
    if done.returncode != 0:
        raise SystemExit(
            f"run.py failed in {checkout} (exit {done.returncode}):\n"
            f"{done.stdout}{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), quartiles by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Dict[str, object]:
    """Compare one metric's paired runs (``parent[i]`` ran with
    ``change[i]``); ``better`` is ``"lower"`` or ``"higher"``."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    beyond_spread = sign * (c_med - p_med) > p_q3 - p_q1
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "beyond_spread": beyond_spread,
        "claimable": beyond_spread and wins * 10 >= len(parent) * 9,
        # the sign test's failing verdict: every pair lost, and by more
        # than the parent's own spread
        "regressed": losses == len(parent) > 0
        and sign * (p_med - c_med) > p_q3 - p_q1,
    }


def render(workload: str, rows: List[Tuple[str, str, Dict[str, object]]]) -> str:
    def spread(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [
        f"{workload}: median [q1, q3] per side; wins = pairs the change won",
        f"{'metric':<18}{'unit':<7}{'parent':<34}{'change':<34}"
        f"{'median':>9}  {'wins':<7}verdict",
    ]
    for name, unit, s in rows:
        verdict = "claimable" if s["claimable"] else (
            "beyond parent IQR" if s["beyond_spread"] else
            "REGRESSED" if s["regressed"] else "-"
        )
        lines.append(
            f"{name:<18}{unit:<7}{spread(s['parent']):<34}"
            f"{spread(s['change']):<34}{s['delta']:>+9.1%}  "
            f"{s['wins']}/{s['pairs']:<5}{verdict}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--json", help="also write every run's metrics here")
    parser.add_argument(
        "--gate", metavar="METRIC",
        help="exit 1 when the change lost every pair on METRIC and its "
             "median is worse by more than the parent's IQR",
    )
    options = parser.parse_args(argv)

    with open(os.path.join(options.change, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    metrics = [metric["name"] for metric in contract["end_to_end"]]
    if options.gate is not None and options.gate not in metrics:
        parser.error(f"--gate: no end-to-end metric {options.gate!r}")
    seconds = float(contract["run_seconds"])
    sides = {"parent": options.parent, "change": options.change}
    runs: Dict[str, List[Dict]] = {"parent": [], "change": []}
    for pair in range(options.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            record = run_once(sides[side], options.workload, options.seed, seconds)
            runs[side].append(record)
            print(
                f"pair {pair + 1}/{options.pairs} {side}: "
                f"correct={record['correct']} failed={record['failed']}",
                file=sys.stderr,
            )

    rows = []
    for metric in contract["end_to_end"]:
        name = metric["name"]
        values = {
            side: [float(r["metrics"][name]["value"]) for r in runs[side]]
            for side in runs
        }
        rows.append((name, metric["unit"], summarize(
            values["parent"], values["change"], metric["better"]
        )))
    print(render(options.workload, rows))
    incorrect = [
        side for side in runs for r in runs[side] if not r["correct"]
    ]
    if incorrect:
        print(f"runs with failed ops: {incorrect}")
    if options.json:
        with open(options.json, "w") as handle:
            json.dump({
                "workload": options.workload, "seed": options.seed,
                "seconds": seconds, "pairs": options.pairs,
                "runs": {s: [r["metrics"] for r in runs[s]] for s in runs},
            }, handle, indent=1, sort_keys=True)
    regressed = [
        name for name, _, s in rows if name == options.gate and s["regressed"]
    ]
    if regressed:
        print(f"sign test failed: the change lost all {options.pairs} pairs "
              f"on {regressed[0]} by more than the parent's IQR")
    return 1 if incorrect or regressed else 0


if __name__ == "__main__":
    sys.exit(main())

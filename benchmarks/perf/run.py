#!/usr/bin/env python3
"""Wall-clock benchmark of the Tiera reproduction: one command.

Three ways to call it (see README.md next to this file):

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one run of
  one workload, in a fresh subprocess; the last line of stdout is one
  JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
  every end-to-end metric (``--trace 0``) or every per-layer metric
  (``--trace 1``) that BENCHMARK.json declares.
* ``run.py --seed 2014 --out DIR`` — every workload, untraced then
  traced, each in its own subprocess; prints every metric by name with
  its unit and writes ``DIR/results.json`` and ``DIR/trace_<W>.json``.
* ``run.py --compare A.json B.json`` — two ``results.json`` files side
  by side, each end-to-end metric judged against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: a worker gets this long; the contract allows a run 180 s.
WORKER_TIMEOUT_S = 170


def load_contract() -> Dict[str, object]:
    """BENCHMARK.json: the one place metric names, units, directions and
    bounds are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _pin_to_current_cpu() -> None:
    """One CPU for the whole pass: the one the scheduler started it on.

    The RPC workloads' two threads take strict turns (the GIL), so a
    second core buys nothing — but waking a thread on an idle vCPU costs
    100+ µs per hand-off whenever the host is slow to schedule it, which
    made rpc_serial bimodal (GET p50 130 vs 340 µs for ten minutes at a
    time).  On one CPU a hand-off is a plain context switch.  Where the
    platform cannot say or pin, the pass runs unpinned."""
    try:
        with open("/proc/self/stat") as handle:
            # field 39 (processor); the fields after "(comm)" start at 3
            cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass


def _run_worker(args: argparse.Namespace) -> int:
    """One pass of one workload in this process; the last stdout line is
    the full record (the contract keys plus digests and raw figures)."""
    import driver

    _pin_to_current_cpu()
    workload = driver.WORKLOADS[args.workload]
    scale = driver.SMOKE if args.smoke else driver.Scale()
    run = driver.run_traced if args.trace else driver.run_untraced
    record = run(workload, args.seed, args.seconds, args.out, scale)
    print(json.dumps(record))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int, out: str,
          smoke: bool) -> Dict[str, object]:
    """Run one pass in a fresh interpreter (``PYTHONHASHSEED=0``, so set
    and dict order cannot differ between runs) and return its record,
    with every declared metric present and nothing else."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--out", out,
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"}, check=True,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    declared = load_contract()["per_layer" if trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(record["metrics"]):
        raise RuntimeError(
            f"{workload}: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(record['metrics']))}"
        )
    record["metrics"] = {
        metric["name"]: {
            "value": record["metrics"][metric["name"]],
            "unit": metric["unit"],
        }
        for metric in declared
    }
    return record


def _run_one(args: argparse.Namespace) -> int:
    record = spawn(args.workload, args.seed, args.seconds, args.trace,
                   args.out, args.smoke)
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


def _print_metrics(title: str, record: Dict[str, object]) -> None:
    print(f"  {title}: correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"{record['failures'] or ''}")
    for name, metric in record["metrics"].items():
        print(f"    {name:<44} {metric['value']:>16.6g} {metric['unit']}")


def _run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    os.makedirs(args.out, exist_ok=True)
    results: Dict[str, object] = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "workloads": {},
    }
    ok = True
    for entry in contract["workloads"]:
        name = entry["name"]
        print(f"{name} — {entry['why']}")
        end_to_end = spawn(name, args.seed, args.seconds, 0, args.out, args.smoke)
        per_layer = spawn(name, args.seed, args.seconds, 1, args.out, args.smoke)
        # The traced pass already reproduced its own untraced digest; it
        # must also be the prefix of the full run's op stream.
        per_layer["prefix_reproduced"] = (
            per_layer["envelope_digest"] == end_to_end["prefix_digest"])
        _print_metrics("end to end", end_to_end)
        print(f"    envelope_digest {end_to_end['envelope_digest']}")
        _print_metrics("per layer", per_layer)
        print(f"    traced digest reproduces untraced: "
              f"{per_layer['digest_reproduced']}, full-run prefix: "
              f"{per_layer['prefix_reproduced']}")
        ok = (ok and end_to_end["correct"] and per_layer["correct"]
              and per_layer["prefix_reproduced"])
        results["workloads"][name] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
    path = os.path.join(args.out, "results.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"wrote {path}; {'all correct' if ok else 'NOT all correct'}")
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    """Judge B against A, metric by metric; non-zero on any ``worse`` or
    on a differing ``envelope_digest``/``virt_*`` (same seed and code
    must reproduce those exactly)."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    bad = 0
    print(f"{'workload':<16} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'change':>9} {'bound':>7}  verdict")
    declared = load_contract()["end_to_end"]
    for name, runs_a in a["workloads"].items():
        if name not in b["workloads"]:
            print(f"{name:<16} missing from {path_b}")
            bad += 1
            continue
        end_a = runs_a["end_to_end"]
        end_b = b["workloads"][name]["end_to_end"]
        for metric in declared:
            key = metric["name"]
            va = end_a["metrics"][key]["value"]
            vb = end_b["metrics"][key]["value"]
            change = (vb - va) / va if va else 0.0
            worsening = -change if metric["better"] == "higher" else change
            if key.startswith("virt_") and va != vb:
                verdict = "DIFFERS"
            elif worsening > metric["bound"]:
                verdict = "worse"
            elif worsening < -metric["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            bad += verdict in ("worse", "DIFFERS")
            print(f"{name:<16} {key:<18} {va:>14.6g} {vb:>14.6g} "
                  f"{change:>+8.2%} {metric['bound']:>7.3f}  {verdict}")
        if end_a["envelope_digest"] != end_b["envelope_digest"]:
            print(f"{name:<16} envelope_digest DIFFERS")
            bad += 1
    print("no metric worse, digests and virt_* identical" if not bad
          else f"{bad} finding(s)")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal measuring time; sets the op counts "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for results, traces and scratch files")
    parser.add_argument("--smoke", action="store_true",
                        help="2 %% of the ops, a quarter of the keys, one set-up")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit(f"no program to measure: {ROOT}/src/repro is missing")
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    args.out = os.path.abspath(args.out)
    if args.worker:
        return _run_worker(args)
    try:
        return _run_one(args) if args.workload else _run_all(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"worker failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())

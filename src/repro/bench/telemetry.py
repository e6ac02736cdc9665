"""Continuous-benchmark telemetry: figure records + the regression gate.

``repro bench`` runs every row of :data:`repro.bench.figures.FIGURES` at
smoke scale and writes one JSON record per row (``BENCH_<row>.json``):
the scale's parameters, the table's headers and cells, the run's facts,
each shape predicate's verdict, and the totals of every closed-loop run
the row drove — operations, errors, virtual duration and throughput,
merged latency percentiles and registry counter deltas.  Every field
comes from the virtual timeline, so a record is a pure function of its
seed: two runs are byte-identical.

:func:`diff_directories` (``repro benchdiff``) holds fresh records
against the committed baselines.  Every committed baseline needs a
fresh record; each row's predicates are re-checked on the fresh record
and fail by name; same-seed operation counts must match exactly; every
other number — cells, facts, latencies, counters — must stay within
``tolerance`` of the baseline in either direction, because drift means
the model changed; and virtual throughput must not drop by more than
``tolerance``.  Labels and verdicts must match exactly.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.bench.figures import FIGURES, Trial, run_figure
from repro.obs.profiler import Profiler, cprofile_capture, render_profile

SCHEMA_VERSION = 2

#: Relative drift (and ``virt_ops_per_s`` drop) beyond which benchdiff fails.
DEFAULT_TOLERANCE = 0.15


def make_record(trial: Trial) -> Dict[str, object]:
    """One smoke-scale figure run as a telemetry record, in the JSON
    types it reloads as (tuples become lists)."""
    latencies = trial.latencies
    record = {
        "schema": SCHEMA_VERSION,
        "name": trial.name,
        "params": trial.params,
        "headers": list(trial.figure.headers),
        "rows": trial.rows,
        "facts": trial.facts,
        "checks": trial.verdicts,
        "operations": trial.operations,
        "errors": trial.errors,
        "virtual_duration": round(trial.duration, 6),
        "virt_ops_per_s": round(
            trial.operations / trial.duration if trial.duration else 0.0, 3
        ),
        "latency": {
            "mean": round(latencies.mean(), 6),
            "p50": round(latencies.percentile(50), 6),
            "p95": round(latencies.percentile(95), 6),
            "p99": round(latencies.percentile(99), 6),
        },
        "registry": {
            name: round(value, 6) for name, value in sorted(trial.registry.items())
        },
    }
    return json.loads(json.dumps(record))


def run_scenario(name: str) -> Dict[str, object]:
    """Run one figure row at smoke scale and return its record."""
    return make_record(run_figure(name, "smoke"))


def profile_scenario(
    name: str,
    cprofile: bool = False,
    cprofile_limit: int = 15,
) -> Dict[str, object]:
    """Run a row at smoke scale under the profiler; the full report.

    The report's ``coverage`` is the fraction of the measured wall time
    the top-level build/load/drive sections account for.
    """
    profiler = Profiler()
    capture = (
        cprofile_capture(cprofile_limit) if cprofile
        else contextlib.nullcontext({})
    )
    started = perf_counter()
    with capture as functions:
        trial = run_figure(name, "smoke", profiler)
    measured = perf_counter() - started
    wall = profiler.wall_report()
    report: Dict[str, object] = {
        "scenario": name,
        "measured_wall_seconds": round(measured, 6),
        "coverage": round(
            wall["total_seconds"] / measured if measured > 0 else 0.0, 4
        ),
        "wall": wall,
        "virtual": trial.virtual,
        "record": make_record(trial),
    }
    if cprofile:
        report["cprofile"] = functions
    return report


# -- persistence and diffing --------------------------------------------------


def record_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"BENCH_{name}.json")


def write_record(record: Dict[str, object], out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = record_path(out_dir, record["name"])
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_record(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _drift(path: str, base, cur, tolerance: float, out: List[str]) -> None:
    """Append one line per difference between two JSON values."""
    if _is_number(base) and _is_number(cur):
        if abs(cur - base) > tolerance * abs(base):
            change = f" ({(cur - base) / base:+.1%})" if base else ""
            out.append(
                f"{path} {base} -> {cur}{change}, beyond ±{tolerance:.0%}"
            )
    elif isinstance(base, dict) and isinstance(cur, dict):
        for key in sorted(set(base) | set(cur)):
            if key not in cur or key not in base:
                side = "fresh record" if key not in cur else "baseline"
                out.append(f"{path}.{key} missing from the {side}")
            else:
                _drift(f"{path}.{key}", base[key], cur[key], tolerance, out)
    elif isinstance(base, list) and isinstance(cur, list):
        if len(base) != len(cur):
            out.append(f"{path} has {len(cur)} entries, baseline {len(base)}")
        else:
            for index, (b, c) in enumerate(zip(base, cur)):
                _drift(f"{path}[{index}]", b, c, tolerance, out)
    elif base != cur:
        out.append(f"{path} {base!r} -> {cur!r}")


#: Fields gated by their own rule rather than by tolerance drift.
_EXACT = ("operations", "errors")
_OWN_RULE = _EXACT + ("virt_ops_per_s",)


def diff_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Compare a fresh record against its baseline; ``(ok, lines)``."""
    name = current.get("name", "?")
    lines: List[str] = []
    failures: List[str] = []
    base_tp = float(baseline.get("virt_ops_per_s", 0.0))
    cur_tp = float(current.get("virt_ops_per_s", 0.0))
    if base_tp > 0:
        change = (cur_tp - base_tp) / base_tp
        verdict = "ok"
        if change < -tolerance:
            verdict = f"FAIL (>{tolerance:.0%} regression)"
            failures.append("virt_ops_per_s")
        lines.append(
            f"{name}: virt_ops_per_s {base_tp:.1f} -> {cur_tp:.1f} "
            f"({change:+.1%}) {verdict}"
        )
    for key in _EXACT:
        if baseline.get(key) != current.get(key):
            failures.append(key)
            lines.append(
                f"{name}: {key} {baseline.get(key)} -> {current.get(key)} "
                "FAIL (same-seed runs must match)"
            )
    drift: List[str] = []
    _drift(
        name,
        {k: v for k, v in baseline.items() if k not in _OWN_RULE},
        {k: v for k, v in current.items() if k not in _OWN_RULE},
        tolerance,
        drift,
    )
    failures.extend(drift)
    lines.extend(f"{line} FAIL" for line in drift)
    figure = FIGURES.get(name)
    if figure is not None:
        verdicts = figure.verdicts(current.get("rows"), current.get("facts"))
        for check, holds in verdicts.items():
            if not holds:
                failures.append(check)
                lines.append(f"{name}: predicate FAIL: {check}")
        if not failures:
            lines.append(
                f"{name}: {len(verdicts)} predicates hold, "
                f"{len(current.get('rows', []))} rows within ±{tolerance:.0%}"
            )
    return not failures, lines


def _records_in(directory: str) -> Dict[str, str]:
    """``{row name: path}`` of the BENCH_*.json records in ``directory``."""
    if not os.path.isdir(directory):
        return {}
    return {
        entry[len("BENCH_"):-len(".json")]: os.path.join(directory, entry)
        for entry in sorted(os.listdir(directory))
        if entry.startswith("BENCH_") and entry.endswith(".json")
    }


def diff_directories(
    baseline_dir: str,
    current_dir: str,
    tolerance: float = DEFAULT_TOLERANCE,
    names: Optional[List[str]] = None,
) -> Tuple[bool, List[str]]:
    """Diff every committed baseline against its fresh record.

    A baseline without a fresh record fails, as does a fresh record
    without a baseline; ``names`` narrows both sets.
    """
    baselines = _records_in(baseline_dir)
    currents = _records_in(current_dir)
    wanted = set(names) if names else set(baselines) | set(currents)
    lines: List[str] = []
    ok = True
    if not wanted & set(currents):
        lines.append(f"no BENCH_*.json records found in {current_dir}")
        ok = False
    for name in sorted(wanted):
        if name not in currents:
            lines.append(f"{name}: no fresh record in {current_dir} FAIL")
            ok = False
        elif name not in baselines:
            lines.append(
                f"{name}: no committed baseline at "
                f"{record_path(baseline_dir, name)}"
            )
            ok = False
        else:
            good, detail = diff_records(
                load_record(baselines[name]),
                load_record(currents[name]),
                tolerance=tolerance,
            )
            ok = ok and good
            lines.extend(detail)
    return ok, lines


__all__ = [
    "DEFAULT_TOLERANCE",
    "run_scenario",
    "profile_scenario",
    "make_record",
    "write_record",
    "load_record",
    "record_path",
    "diff_records",
    "diff_directories",
    "render_profile",
]

"""Output gate: compare each command's artifacts with stored references.

References in refs.json were produced by make_refs.py from the source tree
at the commit that introduced the benchmark. Every number is compared at a
relative tolerance of RTOL, with an absolute floor of ATOL because the CLI
prints six decimals. The published anchors are checked on full-size runs:
the tuned beta sits on the 0.0642 safety bound, and the ASV improvement at
full penetration is about 18% (scenario 1) and 46% (scenario 2).
"""

from __future__ import annotations

import csv
import math
import os
import re

RTOL = 1e-5
ATOL = 2e-6

BETA_BOUND = 0.0642
BETA_ANCHOR_RTOL = 1e-3
ASV_IMPR_AT_FULL_MPR = {"scenario1": 18.0, "scenario2": 46.0}
ASV_IMPR_ANCHOR_PTS = 1.0  # percentage points either side

_TUNE_LINE = re.compile(r"\((?:J=[^,]+), (\d+) iterations, ([\w-]+)\)")


def close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= ATOL + RTOL * abs(ref)


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def parse_run(out_dir) -> list[float]:
    """Platoon row of metrics.csv: [asv, fc]."""
    last = _rows(os.path.join(out_dir, "metrics.csv"))[-1]
    if last[0] != "platoon":
        raise ValueError("metrics.csv has no platoon row")
    return [float(last[1]), float(last[2])]


def parse_sweep(out_dir) -> dict[str, list[float]]:
    """sweep.csv rows by MPR: [asv, fc, asv_impr_pct, fc_impr_pct]."""
    return {r[0]: [float(x) for x in r[1:]] for r in _rows(os.path.join(out_dir, "sweep.csv"))}


def parse_grid(out_dir) -> dict[str, list[float]]:
    """grid.csv rows by "beta,gamma": [asv, fc]."""
    return {
        f"{r[0]},{r[1]}": [float(r[2]), float(r[3])]
        for r in _rows(os.path.join(out_dir, "grid.csv"))
    }


def parse_tune(out_dir, stdout: str) -> dict:
    """theta_opt.csv gains plus the stop reason and iteration count."""
    beta, gamma, j_val = (float(x) for x in _rows(os.path.join(out_dir, "theta_opt.csv"))[0])
    match = _TUNE_LINE.search(stdout)
    if match is None:
        raise ValueError("tune printed no iteration count and stop reason")
    iterations = int(match.group(1))
    trace_rows = len(_rows(os.path.join(out_dir, "trace.csv")))
    if trace_rows != iterations:
        raise ValueError(f"trace.csv has {trace_rows} rows for {iterations} iterations")
    return {"beta": beta, "gamma": gamma, "J": j_val, "iterations": iterations,
            "reason": match.group(2)}


def parse(kind: str, out_dir, stdout: str):
    if kind == "tune":
        return parse_tune(out_dir, stdout)
    return {"run": parse_run, "sweep": parse_sweep, "grid": parse_grid}[kind](out_dir)


def compare_values(label, got, ref) -> list[str]:
    if len(got) != len(ref):
        return [f"{label}: {len(got)} values, reference has {len(ref)}"]
    return [
        f"{label}[{i}]: {g!r} vs reference {r!r}"
        for i, (g, r) in enumerate(zip(got, ref))
        if not close(g, r)
    ]


def _compare_rows(label, got: dict, ref: dict, expected_rows: int) -> list[str]:
    problems = []
    if len(got) != expected_rows:
        problems.append(f"{label}: {len(got)} rows, expected {expected_rows}")
    for row_key, values in got.items():
        if row_key not in ref:
            problems.append(f"{label}: row {row_key} has no reference")
        else:
            problems += compare_values(f"{label} row {row_key}", values, ref[row_key])
    return problems


def _range_count(spec: str) -> int:
    return int(spec.rsplit(":", 1)[1])


def check(cmd, out_dir, stdout: str, refs: dict) -> list[str]:
    """Mismatches between one command's outputs and its references."""
    try:
        got = parse(cmd.kind, out_dir, stdout)
    except (OSError, ValueError, IndexError) as err:
        return [f"{cmd.key}: unreadable output: {err}"]
    ref = refs[cmd.kind].get(cmd.preset if cmd.kind in ("sweep", "grid") else cmd.key)
    if ref is None:
        return [f"{cmd.key}: no reference stored"]
    if cmd.kind == "run":
        return compare_values(cmd.key, got, ref)
    if cmd.kind == "sweep":
        n_rows = len(cmd.args[1].split(","))
        problems = _compare_rows(cmd.key, got, ref, n_rows)
        full = got.get("1.000")
        anchor = ASV_IMPR_AT_FULL_MPR[cmd.preset]
        if full is not None and abs(full[2] - anchor) > ASV_IMPR_ANCHOR_PTS:
            problems.append(
                f"{cmd.key}: ASV improvement at MPR 1.0 is {full[2]:.2f}%, "
                f"published about {anchor:g}%")
        return problems
    if cmd.kind == "grid":
        n_rows = _range_count(cmd.args[1]) * _range_count(cmd.args[3])
        return _compare_rows(cmd.key, got, ref, n_rows)
    problems = compare_values(
        cmd.key, [got["beta"], got["gamma"], got["J"]], [ref["beta"], ref["gamma"], ref["J"]])
    for field in ("iterations", "reason"):
        if got[field] != ref[field]:
            problems.append(f"{cmd.key}: {field} {got[field]!r} vs reference {ref[field]!r}")
    if cmd.full_size and abs(got["beta"] / BETA_BOUND - 1) > BETA_ANCHOR_RTOL:
        problems.append(f"{cmd.key}: tuned beta {got['beta']} is off the {BETA_BOUND} bound")
    return problems

"""Fast self-check of the benchmark on the smallest plan of every workload.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py

For each workload it checks that
- an untraced run passes the output gate and prints every end-to-end
  metric with its unit, in the text and in the final JSON line;
- the gate fails every command once its references are perturbed;
- two traced runs of the same seed print every per-layer metric with its
  unit, and repeat every count (calls, lanes, lane-steps, iterations, CSV
  bytes, fuel points) exactly.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
import tracer
import workloads

SEED = 3


def _run(workload: str, trace: int) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                       "--trace", str(trace), "--tiny"])
    text = buf.getvalue()
    if rc != 0:
        raise AssertionError(f"run.py exited {rc}")
    return text, json.loads(text.strip().splitlines()[-1])


def _names_printed(text: str, result: dict, expected: dict) -> list[str]:
    problems = []
    if set(result["metrics"]) != set(expected):
        problems.append(f"JSON metrics {sorted(result['metrics'])} != {sorted(expected)}")
    for name, unit in expected.items():
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"JSON metric {name} lacks unit {unit}")
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in text.splitlines()):
            problems.append(f"no printed line for {name} in {unit}")
    return problems


def _perturb(ref):
    """The same reference with every number moved far beyond the tolerance."""
    if isinstance(ref, list):
        return [v * 1.001 + 1e-3 for v in ref]
    if "J" in ref:
        return dict(ref, J=ref["J"] * 1.001 + 1e-3)
    return {key: _perturb(row) for key, row in ref.items()}


def _gate_catches_perturbation(workload: str) -> list[str]:
    commands = workloads.build_plan(workload, SEED, 1, tiny=True)
    work_dir = run.WORK / workload
    plain = json.loads((work_dir / "plain.result.json").read_text())
    outs = [work_dir / "out" / f"{i:03d}" for i in range(len(commands))]
    refs = json.loads((run.BENCH / "refs.json").read_text())
    if run.check_outputs(commands, outs, plain, refs):
        return ["gate fails the unperturbed outputs"]
    bad = copy.deepcopy(refs)
    for cmd in commands:
        slot = cmd.preset if cmd.kind in ("sweep", "grid") else cmd.key
        bad[cmd.kind][slot] = _perturb(refs[cmd.kind][slot])
    caught = len(run.check_outputs(commands, outs, plain, bad))
    if caught != len(commands):
        return [f"perturbed references caught on {caught} of {len(commands)} commands"]
    return []


def check(workload: str) -> list[str]:
    text, res = _run(workload, 0)
    problems = _names_printed(text, res, run.END_TO_END)
    if not res["correct"] or res["failed"]:
        problems.append(f"untraced run failed {res['failed']} of {res['attempted']}")
    problems += _gate_catches_perturbation(workload)

    counts = []
    for _ in range(2):
        text, res = _run(workload, 1)
        problems += _names_printed(text, res, tracer.LAYER_METRICS)
        if not res["correct"]:
            problems.append("traced run failed the output gate")
        counts.append({k: res["metrics"][k]["value"] for k in tracer.EXACT_COUNTS})
    problems += [f"count {k} differs: {counts[0][k]} vs {counts[1][k]}"
                 for k in tracer.EXACT_COUNTS if counts[0][k] != counts[1][k]]
    return problems


def main() -> int:
    failed = False
    for workload in workloads.WORKLOADS:
        problems = check(workload)
        failed = failed or bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        for line in problems:
            print(f"  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

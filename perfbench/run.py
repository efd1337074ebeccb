"""platoonsim benchmark: CLI workloads timed end to end, or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload run-export --seed 1 --seconds 12 --trace 0

Each run builds a seeded plan of `platoonsim` CLI commands (workloads.py),
writes their INI configs under .bench_run/, and runs them back to back in a
fresh interpreter (worker.py): a closed loop with one client and no extra
threads. Every command's outputs are checked against refs.json (gate.py).

--trace 0 prints the end-to-end metrics: setup_s (median of SETUP_SAMPLES
fresh interpreters), cmd_s (median time of one command), wall_s (the timed
phase) and peak_rss_mb. Times are in reference-speed seconds (speed.py):
wall time scaled by the host speed sampled during the same phase; the wall
clock readings are printed next to them. --trace 1 runs the plan untraced
and then traced, and prints the per-layer metrics of tracer.LAYER_METRICS
(wall seconds) plus the tracing overhead. The last line of stdout is one
JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
import workloads
from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "cmd_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# cmd_s under the name of the command the workload runs
COMMAND_METRIC = {"run-export": "run_s", "sweep": "sweep_s", "grid": "grid_s",
                  "tune": "tune_s"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """The child's BLAS thread cap: an inherited cap, but never above nproc."""
    try:
        inherited = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        inherited = nproc()
    return max(1, min(inherited, nproc()))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "blas_threads": blas_threads(),
    }


def materialize(commands, work_dir: Path):
    """Write each command's config; return (config paths, argvs, out dirs)."""
    (work_dir / "cfg").mkdir(parents=True)
    configs, argvs, outs = [], [], []
    for i, cmd in enumerate(commands):
        cfg = work_dir / "cfg" / f"{i:03d}.cfg"
        cfg.write_text(cmd.config)
        out = work_dir / "out" / f"{i:03d}"
        configs.append(str(cfg))
        argvs.append([cmd.kind, "--scenario", str(cfg), "--out", str(out), *cmd.args])
        outs.append(out)
    return configs, argvs, outs


def run_worker(plan: dict, work_dir: Path, tag: str, deadline: float) -> dict:
    """Run worker.py on a plan in a fresh interpreter and load its result."""
    plan = dict(plan, src=str(SRC), result=str(work_dir / f"{tag}.result.json"))
    plan_path = work_dir / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan))
    env = dict(os.environ)
    env.update({var: str(blas_threads()) for var in BLAS_VARS})
    with open(work_dir / f"{tag}.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(plan_path)],
                env=env, stdout=log, stderr=log, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker {tag} passed the time limit") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}; see {work_dir / tag}.log")
    with open(plan["result"]) as fh:
        return json.load(fh)


def check_outputs(commands, outs, result, refs) -> list[str]:
    """Failures of one worker run: one entry per failed command."""
    failures = []
    for cmd, out, rec in zip(commands, outs, result["commands"]):
        if rec["rc"] != 0:
            failures.append(f"{cmd.key}: exit {rec['rc']}: {rec['stderr'][-300:]}")
            continue
        problems = gate.check(cmd, out, rec["stdout"], refs)
        if problems:
            failures.append("; ".join(problems[:3]))
    return failures


def tail(samples: list[float]):
    """(percentile, value) of the highest percentile with >= 10 samples beyond."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns metrics, failures and the environment."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "platoonsim" / "__init__.py").exists():
        raise BenchError(f"no platoonsim source tree under {SRC}")
    refs = json.loads((BENCH / "refs.json").read_text())
    commands = workloads.build_plan(workload, seed, seconds, tiny)
    work_dir = WORK / workload
    shutil.rmtree(work_dir, ignore_errors=True)
    configs, argvs, outs = materialize(commands, work_dir)
    env = environment()
    env["loadavg_before"] = os.getloadavg()

    # the speed sampler would land inside trace spans, so traced runs and
    # their untraced twin go without it and report wall seconds
    base = {"configs": configs, "commands": argvs, "sample_speed": not trace}
    setups = []
    if not trace:
        for k in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(dict(base, setup_only=True), work_dir, f"setup{k}",
                                     deadline))
    plain = run_worker(base, work_dir, "plain", deadline)
    setups.append(plain)
    failures = check_outputs(commands, outs, plain, refs)
    attempted = len(commands)

    times = [rec["seconds"] for rec in plain["commands"]]
    if trace:
        traced = run_worker(dict(base, trace_path=str(work_dir / "spans.npz")),
                            work_dir, "traced", deadline)
        failures += check_outputs(commands, outs, traced, refs)
        attempted += len(commands)
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_raw_s"] - plain["wall_raw_s"]
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "cmd_s": statistics.median(times),
            "wall_s": plain["wall_s"],
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = END_TO_END
    env["loadavg_after"] = os.getloadavg()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "attempted": attempted, "failures": failures,
        "command_seconds": times,
        "command_wall_seconds": [rec["wall_seconds"] for rec in plain["commands"]],
        "setup_wall_seconds": [r["setup_wall_s"] for r in setups],
        "wall_raw_s": plain["wall_raw_s"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def report(res: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    env = res["env"]
    print(
        f"env: nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} commit={env['commit']} "
        f"blas_threads={env['blas_threads']} "
        f"load_before={','.join(f'{x:.2f}' for x in env['loadavg_before'])} "
        f"load_after={','.join(f'{x:.2f}' for x in env['loadavg_after'])}"
    )
    times = res["command_seconds"]
    print(f"workload {res['workload']} seed {res['seed']}: {len(times)} commands, "
          f"closed loop, 1 client, trace={int(res['trace'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6f} {m['unit']}")
    if not res["trace"]:
        name = COMMAND_METRIC[res["workload"]]
        hi = tail(times)
        hi_text = f"p{hi[0]:.0f} {hi[1]:.4f} s" if hi else "no percentile has 10 samples beyond"
        print(f"  {name} = cmd_s: median {statistics.median(times):.4f} s over "
              f"{len(times)} commands; {hi_text}")
        walls = res["command_wall_seconds"]
        wall = res["metrics"]["wall_s"]["value"]
        print(f"  wall clock: median command {statistics.median(walls):.4f} s, timed phase "
              f"{res['wall_raw_s']:.4f} s, set-up {statistics.median(res['setup_wall_seconds']):.4f} s; "
              f"reference-speed / wall = {wall / res['wall_raw_s']:.3f}")
    failed = len(res["failures"])
    print(f"  fail_frac {failed / res['attempted']:.4f} ratio ({failed}/{res['attempted']})")
    for line in res["failures"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest plan of the workload (self-check)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    (WORK / args.workload / "result.json").write_text(json.dumps(res, indent=1))
    report(res)
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

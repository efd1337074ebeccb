"""Regenerate refs.json: the reference output of every command a plan can hold.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

Runs the whole catalogue of workloads.py through `platoonsim.cli.main`, one
pool process per available CPU, and stores the parsed outputs the gate
compares against. Run it only on a commit whose outputs are trusted; a
change that alters outputs on purpose regenerates the file and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

import gate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run" / "refs"


def catalogue() -> list:
    cmds = workloads.run_catalogue()
    for p in workloads.PRESETS:
        cmds.append(workloads.sweep_command(p))
        cmds += [workloads.tune_command(p), workloads.tune_command(p, tiny=True)]
    cmds += [workloads.grid_command(workloads.GRID_PRESET, v)
             for v in workloads.GRID_VARIANTS + (workloads.TINY_GRID,)]
    return cmds


def _init(src: str) -> None:
    sys.path.insert(0, src)


def _produce(job):
    """Run one command in this pool process and return its parsed outputs."""
    from platoonsim import cli

    index, cmd = job
    cfg = WORK / f"{index:04d}.cfg"
    out = WORK / f"{index:04d}"
    cfg.write_text(cmd.config)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([cmd.kind, "--scenario", str(cfg), "--out", str(out), *cmd.args])
    if rc != 0:
        raise RuntimeError(f"{cmd.key} exited {rc}")
    parsed = gate.parse(cmd.kind, out, buf.getvalue())
    shutil.rmtree(out)
    return cmd, parsed


def _merge_rows(into: dict, rows: dict, label: str) -> None:
    for key, values in rows.items():
        if key in into and gate.compare_values(label, values, into[key]):
            raise RuntimeError(f"{label}: row {key} differs between commands")
        into.setdefault(key, values)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)

    refs = {"run": {}, "sweep": {}, "grid": {}, "tune": {}}
    jobs = list(enumerate(catalogue()))
    ctx = multiprocessing.get_context("spawn")
    procs = len(os.sched_getaffinity(0))
    with ctx.Pool(procs, initializer=_init, initargs=(str(ROOT / "src"),)) as pool:
        for done, (cmd, parsed) in enumerate(pool.imap_unordered(_produce, jobs), 1):
            if cmd.kind in ("sweep", "grid"):
                _merge_rows(refs[cmd.kind].setdefault(cmd.preset, {}), parsed, cmd.key)
            else:
                refs[cmd.kind][cmd.key] = parsed
            print(f"{done}/{len(jobs)} {cmd.key}", flush=True)
    for kind in refs:
        refs[kind] = dict(sorted(refs[kind].items()))
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

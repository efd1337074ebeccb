"""Command-line front end: run, tune, sweep, and grid workflows.

Every command reads a scenario config (bundled preset name or file path),
applies `--set section.key=value` overrides, and writes CSV artifacts into
the output directory. Every command builds, and so checks, every section of
the config in one order (`_prepare`: the scenario, the fuel table, the
`[optimizer]` settings) before anything else, so a config is valid or
invalid for all four alike; each then checks its own arguments and, where
its gains act, `Scenario.beta_bound()`. A command writes `--dump-config`
and creates that directory once its inputs have passed their checks and
before any run, so an input that fails its checks leaves neither behind.
Exit codes: 0 success, 1 config error, 2 numerical failure (`sweep` and
`grid` first write a failed lane's row as NaN, unless all lanes share it),
3 safety violation under --strict-safety.
Every command prints its runs' clamps at 0 m/s, fuel-rate saturations and
failed lanes to stderr through `_report` alone, one `<label>: ...` line
each, from the engine's per-lane counters; `main` runs it with NumPy's
floating-point warnings off. A failure that ends a command (a `tune`
descent's, `sweep`'s baseline's, `grid`'s all-HV prefix's) reaches `main`
as the engine raised it, and `main` prints its `numerical failure:` line.
No module of the package logs or prints but this one. It writes every file
a command leaves: `trajectory.csv` through `simulator.write_trajectory_csv`,
the one writer whose speed matters, and every other CSV (`metrics.csv`,
`safety.csv`, `trace.csv` with the completed rows of a failed descent too,
`theta_opt.csv`, `sweep.csv`, `grid.csv`) through `_write_csv`.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .avblock import av_block
from .errors import ConfigError, DomainError, NumericalBlowupError
from .metrics import WindowSums, summarize
from .optimizer import optimize
from .simulator import (
    PlatoonEngine,
    assemble_trajectory,
    av_mask_for,
    check_safety,
    window_slice,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_SAFETY = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the config-error code;
    argparse's own 2 is the code of a numerical failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="platoonsim",
        description="Simulate mixed platoons and tune traffic-smoothing AV gains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--scenario",
            required=True,
            help="config file path or bundled preset "
            f"({', '.join(cfgmod.preset_names())})",
        )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="config override, repeatable",
        )
        p.add_argument(
            "--dump-config", metavar="PATH", help="write the effective config"
        )

    p_run = sub.add_parser("run", help="simulate one scenario")
    add_common(p_run)
    p_run.add_argument(
        "--strict-safety",
        action="store_true",
        help="exit 3 if any spacing drops below the safe minimum",
    )

    p_tune = sub.add_parser("tune", help="optimize the ts-ops controller gains")
    add_common(p_tune)

    p_sweep = sub.add_parser("sweep", help="metrics across AV penetration rates")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--mprs",
        default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
        help="comma-separated penetration rates",
    )
    p_sweep.add_argument(
        "--tune-first",
        action="store_true",
        help="re-tune the ts-ops gains at every penetration rate",
    )

    p_grid = sub.add_parser("grid", help="metrics over a beta/gamma grid")
    add_common(p_grid)
    p_grid.add_argument("--beta-range", required=True, metavar="LO:HI:N")
    p_grid.add_argument("--gamma-range", required=True, metavar="LO:HI:N")

    return parser


def _write_csv(out, name, header, rows) -> None:
    """Write `rows` under `header` to `out/name` in csv's "\\r\\n" rows: every
    CSV a command leaves but `simulator.write_trajectory_csv`'s."""
    with open(os.path.join(out, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _prepare(args):
    """The config of `args` with its `--set` overrides, and what it builds,
    in the order every command checks it: the scenario, the fuel table and
    the `[optimizer]` settings."""
    cp = cfgmod.load_config(args.scenario)
    cfgmod.apply_overrides(cp, args.overrides)
    return (cp, cfgmod.build_scenario(cp), cfgmod.build_fuel_coefficients(cp),
            cfgmod.parse_optimizer_config(cp))


def _make_out(args, cp) -> None:
    """Write `--dump-config`, then create `--out`: a command calls this once
    its inputs have passed their checks and before any run."""
    if args.dump_config:
        cfgmod.dump_config(cp, args.dump_config)
    os.makedirs(args.out, exist_ok=True)


def _report(labels, floor_hits, saturated=None, failures=(), notes=()) -> None:
    """Print a command's run diagnostics to stderr, one line per fact, led by
    its lane's label: the clamps at 0 m/s (`floor_hits`) and fuel-rate
    saturations (`saturated`, None when no fuel is computed) of each lane
    but those in `failures` (lane -> its error), then the `notes` lines and
    each failure in lane order. Each count holds one entry per label."""
    for lane, label in enumerate(labels):
        for counts, fact in ((floor_hits, "speed floor engaged {} times"),
                             (saturated, "fuel-rate saturation in {} samples")):
            if lane not in failures and counts is not None and counts[lane]:
                print(f"{label}: {fact.format(counts[lane])}", file=sys.stderr)
    for line in [*notes, *(f"{labels[lane]}: {failures[lane]}" for lane in sorted(failures))]:
        print(line, file=sys.stderr)


def cmd_run(args) -> int:
    cp, scenario, coeffs, _ = _prepare(args)
    _make_out(args, cp)
    engine = PlatoonEngine(scenario)
    traj = assemble_trajectory(scenario, engine.run())
    violations = check_safety(traj, scenario.min_safe_spacing)
    report = summarize(traj, scenario, coeffs)

    write_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
    per_vehicle = zip(report.per_vehicle_asv.tolist(), report.per_vehicle_fc.tolist())
    _write_csv(args.out, "metrics.csv", ["vehicle", "asv", "fc"], [
        *([i, f"{asv:.6f}", f"{fc:.6f}"] for i, (asv, fc) in enumerate(per_vehicle, start=1)),
        ["platoon", f"{report.platoon_asv:.6f}", f"{report.platoon_fc:.6f}"],
    ])
    _write_csv(args.out, "safety.csv", ["t", "vehicle", "spacing"],
               ([f"{v.time:.6f}", v.vehicle, f"{v.spacing:.6f}"] for v in violations))

    print(
        f"platoon ASV {report.platoon_asv:.4f} m/s, "
        f"platoon FC {report.platoon_fc:.2f} ml, "
        f"safety violations: {len(violations)}"
    )
    _report(["platoon"], [engine.floor_hits], [report.saturated])
    if violations and args.strict_safety:
        return EXIT_SAFETY
    return EXIT_OK


def _write_trace(out, trace) -> None:
    """trace.csv: one row per iteration, numbered from 1."""
    values = np.column_stack([trace.thetas, trace.objectives, trace.lambdas]).tolist()
    _write_csv(out, "trace.csv", ["iter", "beta", "gamma", "J", "lambda_beta", "lambda_gamma"],
               ([k, *(f"{val:.10g}" for val in row)] for k, row in enumerate(values, start=1)))


def cmd_tune(args) -> int:
    cp, scenario, _, ocfg = _prepare(args)
    scenario.beta_bound()  # the gains act only on a ts-ops platoon's AVs
    _make_out(args, cp)
    theta, trace = optimize(scenario, ocfg)
    # the completed iterations stay on disk and in their lines; `main` reports a failure
    _write_trace(args.out, trace)
    _report([f"iter={k}" for k in range(1, len(trace) + 1)], trace.floor_hits)
    if trace.failure:
        raise trace.failure
    j_best = trace.objectives[trace.best_index]
    _write_csv(args.out, "theta_opt.csv", ["beta", "gamma", "J"],
               [[f"{theta.beta:.6g}", f"{theta.gamma:.6g}", f"{j_best:.6g}"]])
    print(
        f"best gains: beta={theta.beta:.4f} gamma={theta.gamma:.4f} "
        f"(J={j_best:.6f}, {len(trace)} iterations, {trace.reason})"
    )
    return EXIT_OK


def _platoon_metrics_batch(scenario, raw, coeffs):
    """Platoon-mean ASV and FC per batch lane from raw engine arrays."""
    keep = window_slice(raw["t"], scenario.metric_window)
    sums = WindowSums(scenario, coeffs)
    sums(raw["t"][keep], {"v": raw["v"][keep], "a": raw["a"][keep]})
    return sums.platoon()


def _lane_metrics(sums, lanes, failed) -> np.ndarray:
    """Platoon-mean ASV and FC of each of `lanes` batch lanes, NaN on the
    lanes in `failed`."""
    values = np.full((2, lanes), np.nan)
    ok = [lane for lane in range(lanes) if lane not in failed]
    if ok:  # else the run may have folded nothing
        values[:, ok] = np.array(sums.platoon())[:, ok]
    return values


def cmd_sweep(args) -> int:
    cp, scenario, coeffs, ocfg = _prepare(args)
    try:
        mprs = [float(tok) for tok in args.mprs.split(",") if tok.strip()]
    except ValueError as err:
        raise ConfigError(f"bad --mprs list: {err}") from err
    if not mprs:
        raise ConfigError("--mprs lists no penetration rate")
    if any(not 0.0 <= m <= 1.0 for m in mprs):
        raise ConfigError("--mprs values must lie in [0, 1]")
    # --tune-first's descents, one per lane with an AV, checked before any runs
    points = {lane: replace(scenario, mpr=mpr) for lane, mpr in enumerate(mprs, start=1)}
    descents = {k: p for k, p in points.items() if args.tune_first and p.av_indices}
    for point in descents.values():
        point.beta_bound()
    _make_out(args, cp)

    # lane 0 is the AV-free baseline, lane k the k-th MPR; all lanes are
    # integrated as one batch with their own AV mask and gains
    masks = av_mask_for(scenario.n_followers, [0.0] + mprs)
    betas = np.full(len(masks), scenario.controller.beta)
    gammas = np.full(len(masks), scenario.controller.gamma)
    labels = ["baseline"] + [f"mpr={mpr}" for mpr in mprs]
    errors: dict[int, Exception] = {}
    for lane, point in descents.items():
        theta, trace = optimize(point, ocfg)
        if trace.failure:
            errors[lane] = trace.failure
        else:
            betas[lane], gammas[lane] = theta.beta, theta.gamma

    engine = PlatoonEngine(scenario, beta=betas[:, None], gamma=gammas[:, None], av_mask=masks)
    sums = WindowSums(scenario, coeffs)
    with contextlib.suppress(NumericalBlowupError):  # the engine's table holds it
        engine.run(record=("v", "a"), fold=sums)
    if 0 in engine.lane_failures:  # a failed baseline fails the sweep
        raise engine.lane_failures[0]
    errors = {**engine.lane_failures, **errors}  # their rows are NaN
    asv, fc = _lane_metrics(sums, len(labels), errors)
    asv0, fc0 = asv[0], fc[0]
    notes = []
    if asv0 < 1e-9:  # m/s: round-off of a platoon at equilibrium, no base for a ratio
        notes.append(f"baseline ASV {asv0:.3g} m/s is below 1e-09 m/s: asv_impr not computed")
        asv0 = math.nan
    _report(labels, engine.lane_floor_hits, sums.saturated, errors, notes)
    asv_impr = 100.0 * (1.0 - asv / asv0)
    fc_impr = 100.0 * (1.0 - fc / fc0)
    rows = list(zip(mprs, asv[1:], fc[1:], asv_impr[1:], fc_impr[1:]))

    _write_csv(args.out, "sweep.csv", ["mpr", "asv", "fc", "asv_impr_pct", "fc_impr_pct"],
               ([f"{row[0]:.3f}"] + [f"{val:.6f}" for val in row[1:]] for row in rows))
    for row in rows:
        print(
            f"mpr={row[0]:.2f} asv={row[1]:.4f} fc={row[2]:.2f} "
            f"asv_impr={row[3]:.2f}% fc_impr={row[4]:.2f}%"
        )
    return EXIT_NUMERICAL if errors else EXIT_OK


def _parse_range(raw: str) -> np.ndarray:
    try:
        lo, hi, n = raw.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as err:
        raise ConfigError(f"bad range {raw!r}, expected LO:HI:N") from err
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad range {raw!r}: LO and HI must be finite")
    if n < 1 or hi < lo or (n == 1) != (hi == lo):
        raise ConfigError(f"bad range {raw!r}: need HI >= LO, N = 1 if HI = LO, else N >= 2")
    return np.linspace(lo, hi, n)


def _grid_sums(scenario, coeffs, betas, gammas):
    """The folded window sums of a grid, one lane per (beta, gamma) point
    (`betas` and `gammas` shaped (lanes, 1)), each lane's clamps and failures.

    The scenario is a ts-ops platoon with an AV (`cmd_grid` checks).
    `av_block` runs the all-HV prefix, one lane with no gains, to the
    window's last sample; its record gives the prefix's sums, which every
    lane shares, and its AV block of every follower, in one batched run
    resumed at the head's end or the window's start if earlier, gives each
    lane's; a lane's clamps are the prefix's plus its block's. A failure of
    the prefix, which every point shares, raises.
    """
    keep = window_slice(np.arange(scenario.steps + 1) * scenario.dt, scenario.metric_window)
    block, raw, hits = av_block(scenario, scenario.n_followers, ("x", "v", "a"), keep.stop - 1)
    first, rows = block.first, slice(keep.start, None)
    prefix = WindowSums(scenario, coeffs)
    if first:
        prefix(raw["t"][rows], {name: raw[name][rows] for name in ("v", "a")})
    del raw  # the block's run holds the most memory; free the record first
    sums, engine = WindowSums(scenario, coeffs), block.engine(betas, gammas)
    with contextlib.suppress(NumericalBlowupError):  # the engine's table holds it
        block.run(engine, min(block.head, keep.start), ("v", "a"), sums)
    if first and sums.sums is not None:  # None: every lane failed before a fold
        sums.sums = np.concatenate([np.broadcast_to(prefix.sums[:, None], (2, len(betas), first)),
                                    sums.sums], axis=-1)
        sums.saturated += prefix.saturated
    return sums, hits + engine.lane_floor_hits, engine.lane_failures


def cmd_grid(args) -> int:
    cp, scenario, coeffs, _ = _prepare(args)
    betas = _parse_range(args.beta_range)
    gammas = _parse_range(args.gamma_range)
    bound = scenario.beta_bound()  # gains act only on a ts-ops platoon's AVs
    # small relative slack so ranges quoted at display precision (e.g. the
    # bound rounded to three significant figures) are not rejected
    if betas.min() < 0 or betas.max() > bound * (1 + 1e-4) + 1e-12:
        raise ConfigError(
            f"beta range [{betas.min()}, {betas.max()}] leaves the feasible "
            f"interval [0, {bound:.6g}]"
        )
    if gammas.min() < 0:
        raise ConfigError("gamma range must be non-negative")
    _make_out(args, cp)

    bb, gg = np.meshgrid(betas, gammas, indexing="ij")
    flat_b, flat_g = bb.ravel(), gg.ravel()
    labels = [f"beta={b:.6g} gamma={g:.6g}" for b, g in zip(flat_b, flat_g)]
    sums, floor_hits, failures = _grid_sums(scenario, coeffs, flat_b[:, None], flat_g[:, None])
    asv_vals, fc_vals = _lane_metrics(sums, len(labels), failures)
    _report(labels, floor_hits, sums.saturated, failures)

    _write_csv(args.out, "grid.csv", ["beta", "gamma", "asv", "fc"], (
        [f"{b:.6g}", f"{g:.6g}", f"{a_val:.6f}", f"{f_val:.6f}"]
        for b, g, a_val, f_val in zip(flat_b, flat_g, asv_vals, fc_vals)
    ))
    print(f"grid of {flat_b.size} points written to grid.csv")
    return EXIT_NUMERICAL if failures else EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "tune": cmd_tune,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a run's failures are `_report`'s or raised
            return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # inputs are read as ConfigErrors; this is an output
        print(f"config error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowupError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

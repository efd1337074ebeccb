"""Command-line front end: run, tune, sweep, and grid workflows.

Every command reads a scenario config (bundled preset name or file path),
applies `--set section.key=value` overrides, and writes CSV artifacts into
the output directory. A command writes `--dump-config` and creates that
directory once its inputs have passed their checks and before any run, so
a config error leaves neither behind. Exit codes: 0 success, 1 config
error, 2 numerical failure, 3 safety violation under --strict-safety.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .avblock import av_block
from .errors import ConfigError, DomainError, NumericalBlowupError, OptimizeError
from .metrics import WindowSums, summarize
from .optimizer import _tunable, optimize
from .simulator import (
    PlatoonEngine,
    av_mask_for,
    check_safety,
    simulate,
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
    cp = cfgmod.load_config(args.scenario)
    cfgmod.apply_overrides(cp, args.overrides)
    return cp, cfgmod.build_scenario(cp)


def _make_out(args, cp) -> None:
    """Write `--dump-config`, then create `--out`: a command calls this once
    its inputs have passed their checks and before any run."""
    if args.dump_config:
        cfgmod.dump_config(cp, args.dump_config)
    os.makedirs(args.out, exist_ok=True)


def cmd_run(args) -> int:
    cp, scenario = _prepare(args)
    coeffs = cfgmod.build_fuel_coefficients(cp)
    _make_out(args, cp)
    traj = simulate(scenario)
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
    if report.saturated:
        print("warning: fuel-rate saturation encountered", file=sys.stderr)
    if violations and args.strict_safety:
        return EXIT_SAFETY
    return EXIT_OK


def _write_trace(out, trace) -> None:
    """trace.csv: one row per iteration, numbered from 1."""
    values = np.column_stack([trace.thetas, trace.objectives, trace.lambdas]).tolist()
    _write_csv(out, "trace.csv", ["iter", "beta", "gamma", "J", "lambda_beta", "lambda_gamma"],
               ([k, *(f"{val:.10g}" for val in row)] for k, row in enumerate(values, start=1)))


def cmd_tune(args) -> int:
    cp, scenario = _prepare(args)
    ocfg = cfgmod.build_optimizer_config(cp, scenario)
    _tunable(scenario)  # the descent acts only on a ts-ops platoon's AVs
    _make_out(args, cp)
    try:
        theta, trace = optimize(scenario, ocfg)
    except OptimizeError as err:
        # the completed iterations stay on disk; `main` reports the failure
        _write_trace(args.out, err.trace)
        raise
    _write_trace(args.out, trace)
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


def _report_lanes(floor_hits, sums, labels) -> None:
    """stderr lines for batch lanes clamped at 0 m/s or at the fuel cap."""
    for label, hits, saturated in zip(labels, floor_hits.tolist(), sums.saturated.tolist()):
        if hits:
            print(f"{label}: speed floor engaged {hits} times", file=sys.stderr)
        if saturated:
            print(f"{label}: fuel-rate saturation in {saturated} samples", file=sys.stderr)


def cmd_sweep(args) -> int:
    cp, scenario = _prepare(args)
    coeffs = cfgmod.build_fuel_coefficients(cp)
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
    descents = {
        lane: (point, cfgmod.build_optimizer_config(cp, point))
        for lane, point in points.items() if args.tune_first and point.av_indices
    }
    for point, _ in descents.values():
        _tunable(point)
    _make_out(args, cp)

    # lane 0 is the AV-free baseline, lane k the k-th MPR; all lanes are
    # integrated as one batch with their own AV mask and gains
    masks = av_mask_for(scenario.n_followers, [0.0] + mprs)
    betas = np.full(len(masks), scenario.controller.beta)
    gammas = np.full(len(masks), scenario.controller.gamma)
    labels = ["baseline"] + [f"mpr={mpr}" for mpr in mprs]
    errors: dict[int, str] = {}
    for lane, (point, ocfg) in descents.items():
        try:
            theta, _ = optimize(point, ocfg)
        except OptimizeError as err:
            errors[lane] = str(err)
            continue
        betas[lane], gammas[lane] = theta.beta, theta.gamma

    # a lane that blows up is dropped and the rest re-integrated; lanes are
    # independent, so the surviving rows do not change
    lanes = [lane for lane in range(len(masks)) if lane not in errors]
    while True:
        engine = PlatoonEngine(
            scenario,
            beta=betas[lanes, None],
            gamma=gammas[lanes, None],
            av_mask=masks[lanes],
        )
        sums = WindowSums(scenario, coeffs)
        try:
            engine.run(record=("v", "a"), fold=sums)
            break
        except NumericalBlowupError as err:
            if lanes[err.lane] == 0:
                raise
            errors[lanes.pop(err.lane)] = str(err)
    _report_lanes(engine.lane_floor_hits, sums, [labels[lane] for lane in lanes])

    metrics = dict(zip(lanes, zip(*sums.platoon())))
    asv0, fc0 = metrics[0]
    if asv0 < 1e-9:  # m/s: round-off of a platoon at equilibrium, no base for a ratio
        print(f"baseline ASV {asv0:.3g} m/s is below 1e-09 m/s: asv_impr not computed",
              file=sys.stderr)
        asv0 = math.nan
    rows = []
    for lane, mpr in enumerate(mprs, start=1):
        if lane in errors:
            print(f"{labels[lane]}: {errors[lane]}", file=sys.stderr)
            rows.append((mpr,) + (float("nan"),) * 4)
            continue
        asv_m, fc_m = metrics[lane]
        rows.append(
            (
                mpr,
                float(asv_m),
                float(fc_m),
                100.0 * (1.0 - asv_m / asv0),
                100.0 * (1.0 - fc_m / fc0),
            )
        )

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
    (`betas` and `gammas` shaped (lanes, 1)), and each lane's clamps.

    The scenario is a ts-ops platoon with an AV (`cmd_grid` checks).
    `av_block`, at the first point's gains, runs the all-HV prefix to the
    window's last sample; its record, with its lane axis, gives the
    prefix's sums, and its AV block of every follower, in one batched run
    resumed at the head's end or the window's start if earlier, gives each
    lane's; a lane's clamps are the prefix's plus its block's. A failure
    in `av_block` may come from the first point's gains, and another lane
    may fail earlier, so the whole batch runs to say.
    """
    seed, last = (betas[:1], gammas[:1]), scenario.n_followers
    keep = window_slice(np.arange(scenario.steps + 1) * scenario.dt, scenario.metric_window)
    try:
        block, raw, seed_hits = av_block(scenario, *seed, last, ("x", "v", "a"), keep.stop - 1)
    except NumericalBlowupError:
        PlatoonEngine(scenario, beta=betas, gamma=gammas).run(record=("v",), fold=lambda *_: None)
        raise
    first, rows = block.first, slice(keep.start, None)
    prefix = WindowSums(scenario, coeffs)
    if first:
        prefix(raw["t"][rows], {name: raw[name][rows] for name in ("v", "a")})
    del raw  # the block's run holds the most memory; free the record first
    sums = WindowSums(scenario, coeffs)
    engine = block.run(betas, gammas, min(block.head, keep.start), ("v", "a"), sums)[1]
    if first:
        sums.sums = np.concatenate([np.broadcast_to(prefix.sums, (2, len(betas), first)),
                                    sums.sums], axis=-1)
        sums.saturated += prefix.saturated
    return sums, seed_hits + engine.lane_floor_hits


def cmd_grid(args) -> int:
    cp, scenario = _prepare(args)
    coeffs = cfgmod.build_fuel_coefficients(cp)
    betas = _parse_range(args.beta_range)
    gammas = _parse_range(args.gamma_range)
    bound = scenario.beta_bound()
    # small relative slack so ranges quoted at display precision (e.g. the
    # bound rounded to three significant figures) are not rejected
    if betas.min() < 0 or betas.max() > bound * (1 + 1e-4) + 1e-12:
        raise ConfigError(
            f"beta range [{betas.min()}, {betas.max()}] leaves the feasible "
            f"interval [0, {bound:.6g}]"
        )
    _tunable(scenario)  # gains act only on a ts-ops platoon's AVs
    if gammas.min() < 0:
        raise ConfigError("gamma range must be non-negative")
    _make_out(args, cp)

    bb, gg = np.meshgrid(betas, gammas, indexing="ij")
    flat_b, flat_g = bb.ravel(), gg.ravel()
    labels = [f"beta={b:.6g} gamma={g:.6g}" for b, g in zip(flat_b, flat_g)]
    try:
        sums, floor_hits = _grid_sums(scenario, coeffs, flat_b[:, None], flat_g[:, None])
    except NumericalBlowupError as err:
        print(f"numerical failure: {labels[err.lane]}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    asv_vals, fc_vals = sums.platoon()
    _report_lanes(floor_hits, sums, labels)

    _write_csv(args.out, "grid.csv", ["beta", "gamma", "asv", "fc"], (
        [f"{b:.6g}", f"{g:.6g}", f"{a_val:.6f}", f"{f_val:.6f}"]
        for b, g, a_val, f_val in zip(flat_b, flat_g, asv_vals, fc_vals)
    ))
    print(f"grid of {flat_b.size} points written to grid.csv")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "tune": cmd_tune,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # inputs are read as ConfigErrors; this is an output
        print(f"config error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalBlowupError, OptimizeError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

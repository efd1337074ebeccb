"""Command-line front end: run, tune, sweep, and grid workflows.

Every command reads a scenario config (bundled preset name or file path),
applies `--set section.key=value` overrides, and writes CSV artifacts into
the output directory. Exit codes: 0 success, 1 config error, 2 numerical
failure, 3 safety violation under --strict-safety.
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
from .avblock import av_block, seeding_run
from .errors import ConfigError, DomainError, NumericalBlowupError, OptimizeError
from .metrics import WindowSums, summarize, write_metrics_csv
from .optimizer import optimize, write_trace_csv
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


def _prepare(args):
    cp = cfgmod.load_config(args.scenario)
    cfgmod.apply_overrides(cp, args.overrides)
    os.makedirs(args.out, exist_ok=True)
    scenario = cfgmod.build_scenario(cp)
    if args.dump_config:
        cfgmod.dump_config(cp, args.dump_config)
    return cp, scenario


def cmd_run(args) -> int:
    cp, scenario = _prepare(args)
    coeffs = cfgmod.build_fuel_coefficients(cp)
    traj = simulate(scenario)
    violations = check_safety(traj, scenario.min_safe_spacing)
    report = summarize(traj, scenario, coeffs)

    write_trajectory_csv(traj, os.path.join(args.out, "trajectory.csv"))
    write_metrics_csv(report, os.path.join(args.out, "metrics.csv"))
    with open(os.path.join(args.out, "safety.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "vehicle", "spacing"])
        for v in violations:
            writer.writerow([f"{v.time:.6f}", v.vehicle, f"{v.spacing:.6f}"])

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


def cmd_tune(args) -> int:
    cp, scenario = _prepare(args)
    ocfg = cfgmod.build_optimizer_config(cp, scenario)
    try:
        theta, trace = optimize(scenario, ocfg)
    except OptimizeError as err:
        # the completed iterations stay on disk; `main` reports the failure
        write_trace_csv(err.trace, os.path.join(args.out, "trace.csv"))
        raise
    write_trace_csv(trace, os.path.join(args.out, "trace.csv"))
    with open(os.path.join(args.out, "theta_opt.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "gamma", "J"])
        writer.writerow(
            [
                f"{theta.beta:.6g}",
                f"{theta.gamma:.6g}",
                f"{trace.objectives[trace.best_index]:.6g}",
            ]
        )
    print(
        f"converged gains: beta={theta.beta:.4f} gamma={theta.gamma:.4f} "
        f"(J={trace.objectives[trace.best_index]:.6f}, "
        f"{len(trace)} iterations, {trace.reason})"
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
    if any(not 0.0 <= m <= 1.0 for m in mprs):
        raise ConfigError("--mprs values must lie in [0, 1]")

    # lane 0 is the AV-free baseline, lane k the k-th MPR; all lanes are
    # integrated as one batch with their own AV mask and gains
    masks = av_mask_for(scenario.n_followers, [0.0] + mprs)
    betas = np.full(len(masks), scenario.controller.beta)
    gammas = np.full(len(masks), scenario.controller.gamma)
    labels = ["baseline"] + [f"mpr={mpr}" for mpr in mprs]
    errors: dict[int, str] = {}
    if args.tune_first:
        for lane, mpr in enumerate(mprs, start=1):
            point = replace(scenario, mpr=mpr)
            if not point.av_indices:
                continue
            try:
                theta, _ = optimize(point, cfgmod.build_optimizer_config(cp, point))
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

    with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mpr", "asv", "fc", "asv_impr_pct", "fc_impr_pct"])
        for row in rows:
            writer.writerow([f"{row[0]:.3f}"] + [f"{val:.6f}" for val in row[1:]])
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

    A seeding lane runs the whole platoon at the first point's gains to the
    window's last sample; it is every point where no gains act (no AV, a
    controller other than ts-ops, or a window of sample 0 alone). Else its
    record gives the prefix's sums and the AV block of every follower, whose
    one batched run, resumed at the head's end or the window's start if
    earlier, gives each lane's; a lane's clamps are the seeding lane's plus
    its block's, less the first lane's. A failing seeding lane fails the
    batch too, maybe earlier in another lane, so that batch runs to say.
    """
    lanes, n = (len(betas),), scenario.n_followers
    sums = WindowSums(scenario, coeffs)
    seed = betas[:1], gammas[:1]
    keep = window_slice(np.arange(scenario.steps + 1) * scenario.dt, scenario.metric_window)
    if scenario.controller.kind != "ts-ops" or not scenario.av_indices or keep.stop == 1:
        engine = PlatoonEngine(scenario, *seed)
        engine.run(record=("v", "a"), fold=sums)
        sums.sums = np.broadcast_to(sums.sums, (2, *lanes, n))
        sums.saturated = np.broadcast_to(sums.saturated, lanes)
        return sums, np.broadcast_to(engine.lane_floor_hits, lanes)
    try:
        raw, seed_hits = seeding_run(scenario, *seed, n, ("x", "v", "a"), keep.stop - 1)
    except NumericalBlowupError:
        PlatoonEngine(scenario, beta=betas, gamma=gammas).run(record=("v",), fold=lambda *_: None)
        raise
    for name in ("x", "v", "a"):
        raw[name] = raw[name][:, 0]
    block = av_block(scenario, raw, n)
    first, rows = block.first, slice(keep.start, None)
    prefix = WindowSums(scenario, coeffs)
    prefix(raw["t"][rows], {"v": raw["v"][rows, : first + 1], "a": raw["a"][rows, :first]})
    del raw  # the block's run holds the most memory; free the record first
    tail = WindowSums(scenario, coeffs)
    hits = block.fold(betas, gammas, tail, min(block.head.steps, keep.start))
    sums.sums = np.concatenate(
        [np.broadcast_to(prefix.sums[:, None], (2, *lanes, first)), tail.sums], axis=-1
    )
    sums.saturated = prefix.saturated + tail.saturated
    return sums, seed_hits + hits - hits[0]


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
    if gammas.min() < 0:
        raise ConfigError("gamma range must be non-negative")

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

    with open(os.path.join(args.out, "grid.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "gamma", "asv", "fc"])
        for b, g, a_val, f_val in zip(flat_b, flat_g, asv_vals, fc_vals):
            writer.writerow(
                [f"{b:.6g}", f"{g:.6g}", f"{a_val:.6f}", f"{f_val:.6f}"]
            )
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

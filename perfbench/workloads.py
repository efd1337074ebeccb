"""Seeded workload plans for the platoonsim benchmark.

A plan is a list of CLI commands plus the INI config each one reads. The
configs are written by the benchmark from the two published parameter sets
below, so the program only sees generated inputs, and the same
(workload, seed, seconds) always yields the same plan.

Every variable input is drawn from a finite catalogue, so `refs.json` can
hold a reference output for each command any seed can produce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("run-export", "sweep", "grid", "tune")

# Published parameter sets of the two scenarios (same values as the bundled
# presets). Kept here so a later change to the presets does not change the
# benchmark's inputs.
_COMMON = {
    "scenario": {
        "n_followers": "10",
        "mpr": "0.1",
        "t_f": "500",
        "dt": "0.1",
        "integrator": "rk4",
        "min_safe_spacing": "2",
        "lead_profile": "0:21 100:21 120:18 140:18 160:21",
    },
    "av_model": {"k1": "0.02", "k2": "0.13", "eta": "21.51", "tau": "1.71", "length": "5"},
    "optimizer": {
        "beta0": "0.05",
        "gamma0": "1.0",
        "epsilon": "1e-5",
        "phi": "1e-6",
        "n_max": "300",
    },
}
BASE = {
    "scenario1": {
        "scenario": {"metric_window": "100 250"},
        "hv_model": {"a": "0.6", "b": "2.5", "v0": "35", "s0": "2", "T": "1.5",
                     "delta": "4", "length": "5"},
        "controller": {"kind": "ts-ops", "beta": "0.0642", "gamma": "1.0011",
                       "kernel": "arctan", "envelope_s0": "52.42", "phi1": "1.0",
                       "phi2": "0.1", "phi3": "0.01"},
    },
    "scenario2": {
        "scenario": {"metric_window": "100 300"},
        "hv_model": {"a": "0.6", "b": "5.2", "v0": "44.1", "s0": "6.3", "T": "2.2",
                     "delta": "15.5", "length": "5"},
        "controller": {"kind": "ts-ops", "beta": "0.0642", "gamma": "1.0017",
                       "kernel": "arctan", "envelope_s0": "52.42", "phi1": "1.0",
                       "phi2": "0.04", "phi3": "0.01"},
    },
}
PRESETS = tuple(BASE)

# run-export catalogue: 2 presets x 11 MPRs x 3 controllers x 6 lead dips
RUN_MPRS = tuple(round(0.1 * k, 1) for k in range(11))
RUN_KINDS = ("ts-ops", "ts-trc", "none")
RUN_DIP_DEPTHS = (2.0, 3.0, 4.0)  # m/s below the 21 m/s cruise speed
RUN_DIP_STARTS = (100.0, 120.0)  # s; the dip lasts 60 s

SWEEP_MPRS = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
TINY_SWEEP_MPRS = "1.0"

# (beta range, gamma range) as LO:HI:N; each full variant has 256 lanes and
# stays below the 0.0642 safety bound on beta
GRID_VARIANTS = (
    ("0:0.0642:16", "0.25:1.5:16"),
    ("0.01:0.0642:32", "0.5:1.25:8"),
    ("0:0.048:8", "0.1:2.0:32"),
    ("0.02:0.0642:16", "0.8:1.2:16"),
)
TINY_GRID = ("0.03:0.0642:2", "0.5:1.0:2")
# Grids run on one preset: the batched fuel metrics cover the metric window,
# 150 s in scenario 1 and 200 s in scenario 2, so a grid's time and memory
# depend on the preset (by 8% and 12%).
GRID_PRESET = "scenario2"

TINY_TUNE_NMAX = 1

# Nominal cost in reference seconds of one unit of work; sizes the plan so a
# run lasts about --seconds. A grid run holds one grid, so the driver's
# 4 + 22 x 4 runs fit its time budget on a slow host. The tune pair is never
# split, so a tune run lasts at least one pair.
_NOMINAL_S = {"run-export": 1.5, "sweep": 12.0, "grid": 11.0, "tune": 36.0}


@dataclass
class Command:
    """One CLI invocation: its kind, reference key, config and extra argv."""

    kind: str
    preset: str
    key: str
    config: str
    args: list = field(default_factory=list)
    full_size: bool = True  # the published anchors hold only at full size


def render_config(preset: str, **overrides) -> str:
    """INI text for a preset with `section.key` overrides applied."""
    sections: dict[str, dict[str, str]] = {}
    for source in (_COMMON, BASE[preset]):
        for sec, items in source.items():
            sections.setdefault(sec, {}).update(items)
    for dotted, value in overrides.items():
        sec, key = dotted.split(".", 1)
        sections.setdefault(sec, {})[key] = value
    lines = []
    for sec, items in sections.items():
        lines.append(f"[{sec}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    return "\n".join(lines)


def dip_profile(depth: float, start: float) -> str:
    low = 21.0 - depth
    return (
        f"0:21 {start:g}:21 {start + 20:g}:{low:g} "
        f"{start + 40:g}:{low:g} {start + 60:g}:21"
    )


def run_command(preset, mpr, kind, depth, start) -> Command:
    key = f"run/{preset}/mpr={mpr:.1f}/{kind}/dip={depth:g}@{start:g}"
    cfg = render_config(
        preset,
        **{
            "scenario.mpr": f"{mpr:.1f}",
            "controller.kind": kind,
            "scenario.lead_profile": dip_profile(depth, start),
        },
    )
    return Command("run", preset, key, cfg)


def run_catalogue() -> list[Command]:
    return [
        run_command(p, m, k, d, s)
        for p in PRESETS
        for m in RUN_MPRS
        for k in RUN_KINDS
        for d in RUN_DIP_DEPTHS
        for s in RUN_DIP_STARTS
    ]


def sweep_command(preset, tiny=False) -> Command:
    mprs = TINY_SWEEP_MPRS if tiny else SWEEP_MPRS
    return Command("sweep", preset, f"sweep/{preset}", render_config(preset),
                   ["--mprs", mprs], full_size=not tiny)


def grid_command(preset, variant) -> Command:
    betas, gammas = variant
    return Command("grid", preset, f"grid/{preset}", render_config(preset),
                   ["--beta-range", betas, "--gamma-range", gammas])


def tune_command(preset, tiny=False) -> Command:
    if tiny:
        cfg = render_config(preset, **{"optimizer.n_max": str(TINY_TUNE_NMAX)})
        return Command("tune", preset, f"tune/{preset}/n_max={TINY_TUNE_NMAX}",
                       cfg, full_size=False)
    return Command("tune", preset, f"tune/{preset}", render_config(preset))


def _count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / _NOMINAL_S[workload]))


def build_plan(workload: str, seed: int, seconds: float, tiny: bool = False) -> list[Command]:
    """The commands one benchmark run executes, back to back, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "run-export":
        # presets and controllers follow a fixed cycle, so every run holds the
        # same mix of them; the seed draws the MPR and the lead dip
        n = 2 if tiny else max(2, _count(workload, seconds))
        return [run_command(PRESETS[i % 2], rng.choice(RUN_MPRS), RUN_KINDS[i % 3],
                            rng.choice(RUN_DIP_DEPTHS), rng.choice(RUN_DIP_STARTS))
                for i in range(n)]
    if workload == "sweep":
        if tiny:
            return [sweep_command(p, tiny=True) for p in PRESETS]
        # one preset per sweep, alternating from a seed-chosen start; the
        # two presets cost the same (same platoon size, horizon and step)
        return [sweep_command(PRESETS[(seed + i) % 2]) for i in range(_count(workload, seconds))]
    if workload == "grid":
        if tiny:
            return [grid_command(GRID_PRESET, TINY_GRID)]
        return [grid_command(GRID_PRESET, rng.choice(GRID_VARIANTS))
                for _ in range(_count(workload, seconds))]
    if workload == "tune":
        # the lead profile is not jittered: the stop reason and iteration
        # counts (14 and 9) are part of what the workload measures
        rounds = 1 if tiny else _count(workload, seconds)
        return [tune_command(p, tiny) for _ in range(rounds) for p in PRESETS]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")

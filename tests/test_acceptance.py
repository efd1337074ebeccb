"""Acceptance suite: one test per published criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math

import numpy as np
import pytest

from platoonsim.cli import _platoon_metrics_batch
from platoonsim.config import build_optimizer_config, build_scenario, load_config
from platoonsim.controller import ControllerParams, validate_controller_conditions
from platoonsim.dynamics import rdc_check
from platoonsim.metrics import default_fuel_coefficients
from platoonsim.optimizer import (
    descent_direction,
    optimize,
    replayed_objective,
    simulate_with_sensitivity,
)
from platoonsim.simulator import PlatoonEngine, av_mask_for, simulate

from conftest import FLAT_LEAD, IDM_1, IDM_2, OVRV_1, make_scenario, make_short_scenario

MPRS = [round(0.1 * k, 1) for k in range(11)]


def criterion(num, description, passed, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def coeffs():
    return default_fuel_coefficients()


@pytest.fixture(scope="module")
def tuned1():
    cp = load_config("scenario1")
    sc = build_scenario(cp)
    return optimize(sc, build_optimizer_config(cp, sc))


@pytest.fixture(scope="module")
def tuned2():
    cp = load_config("scenario2")
    sc = build_scenario(cp)
    return optimize(sc, build_optimizer_config(cp, sc))


def run_sweep(scenario, coeffs):
    """Metrics and minimum spacing per MPR lane, integrated as one batch."""
    engine = PlatoonEngine(scenario, av_mask=av_mask_for(scenario.n_followers, MPRS))
    raw = engine.run(record=("v", "a", "s"))
    asv_arr, fc_arr = _platoon_metrics_batch(scenario, raw, coeffs)
    min_spacing = raw["s"].min(axis=(0, 2))
    return asv_arr, fc_arr, min_spacing


@pytest.fixture(scope="module")
def sweep1(tuned1, coeffs):
    theta = tuned1[0]
    ops = run_sweep(
        make_scenario(kind="ts-ops", beta=theta.beta, gamma=theta.gamma), coeffs
    )
    trc = run_sweep(make_scenario(kind="ts-trc"), coeffs)
    return ops, trc


@pytest.fixture(scope="module")
def sweep2(tuned2, coeffs):
    theta = tuned2[0]
    ops = run_sweep(
        make_scenario(
            hv=IDM_2, kind="ts-ops", beta=theta.beta, gamma=theta.gamma,
            window=(100.0, 300.0),
        ),
        coeffs,
    )
    trc = run_sweep(make_scenario(hv=IDM_2, kind="ts-trc", window=(100.0, 300.0)), coeffs)
    return ops, trc


BOUND = 2.0 * (52.42 - 2.0) / (math.pi * 500.0)


def test_criterion_1_optimal_gains_scenario1(tuned1):
    theta, trace = tuned1
    ok = (
        abs(theta.beta - 0.0642) <= 0.0005
        and abs(theta.gamma - 1.0011) <= 0.02
        and len(trace) <= 300
        and abs(theta.beta - BOUND) < 1e-9
    )
    criterion(
        1,
        "scenario 1 tuned gains at 10% penetration",
        ok,
        f"beta={theta.beta:.5f} (target 0.0642±0.0005, bound {BOUND:.5f}), "
        f"gamma={theta.gamma:.5f} (target 1.0011±0.02), "
        f"{len(trace)} iterations",
    )


def test_criterion_2_optimal_gains_scenario2(tuned2):
    theta, trace = tuned2
    ok = (
        abs(theta.gamma - 1.0017) <= 0.02
        and abs(theta.beta - BOUND) <= 0.0005
        and len(trace) <= 300
    )
    criterion(
        2,
        "scenario 2 tuned gains at 10% penetration",
        ok,
        f"beta={theta.beta:.5f} (bound {BOUND:.5f}±0.0005), "
        f"gamma={theta.gamma:.5f} (target 1.0017±0.02), {len(trace)} iterations",
    )


def test_criterion_3_scenario1_sweep(sweep1):
    asv_arr, fc_arr, _ = sweep1[0]
    asv_impr = 100.0 * (1.0 - asv_arr[-1] / asv_arr[0])
    fc_red = 100.0 * (1.0 - fc_arr[-1] / fc_arr[0])
    ok = abs(asv_impr - 18.0) <= 3.0 and abs(fc_red - 0.78) <= 0.4
    criterion(
        3,
        "scenario 1 full-penetration improvements",
        ok,
        f"ASV improvement {asv_impr:.2f}% (target 18±3), "
        f"FC reduction {fc_red:.2f}% (target 0.78±0.4); "
        f"absolute FC {fc_arr[0]:.2f} -> {fc_arr[-1]:.2f} ml "
        f"(reported 244.52 -> 242.62)",
    )


def test_criterion_4_scenario2_sweep(sweep2):
    asv_arr, fc_arr, _ = sweep2[0]
    asv_impr = 100.0 * (1.0 - asv_arr[-1] / asv_arr[0])
    fc_red = 100.0 * (1.0 - fc_arr[-1] / fc_arr[0])
    ok = abs(asv_impr - 46.78) <= 5.0 and abs(fc_red - 2.74) <= 1.0
    criterion(
        4,
        "scenario 2 full-penetration improvements",
        ok,
        f"ASV improvement {asv_impr:.2f}% (target 46.78±5), "
        f"FC reduction {fc_red:.2f}% (target 2.74±1)",
    )


def test_criterion_5_baseline_ordering(sweep1, sweep2):
    details = []
    ok = True
    for label, (ops, trc), gaps in (
        ("s1", sweep1, (4.0, 0.61)),
        ("s2", sweep2, (0.91, 0.63)),
    ):
        asv_ops = 100.0 * (1.0 - ops[0] / ops[0][0])
        asv_trc = 100.0 * (1.0 - trc[0] / trc[0][0])
        fc_ops = 100.0 * (1.0 - ops[1] / ops[1][0])
        fc_trc = 100.0 * (1.0 - trc[1] / trc[1][0])
        ordering = bool((asv_trc[1:] >= asv_ops[1:] - 1e-9).all())
        asv_gap = asv_trc[-1] - asv_ops[-1]
        fc_gap = fc_trc[-1] - fc_ops[-1]
        ok = ok and ordering and abs(asv_gap - gaps[0]) <= 2.0 and abs(fc_gap - gaps[1]) <= 2.0
        details.append(
            f"{label}: ordering {'holds' if ordering else 'broken'}, "
            f"gaps ASV {asv_gap:.2f}pp (target {gaps[0]}±2), "
            f"FC {fc_gap:.2f}pp (target {gaps[1]}±2)"
        )
    criterion(5, "reference controller stays ahead at every penetration", ok, "; ".join(details))


def test_criterion_6_safety_across_sweeps(sweep1, sweep2):
    worst1 = sweep1[0][2].min()
    worst2 = sweep2[0][2].min()
    ok = worst1 >= 2.0 and worst2 >= 2.0
    criterion(
        6,
        "no spacing below the safe minimum at any penetration with tuned gains",
        ok,
        f"min spacing s1={worst1:.2f} m, s2={worst2:.2f} m (floor 2.0)",
    )


def test_criterion_7_gradient_oracle():
    sc = make_short_scenario(beta=0.03, gamma=0.5)
    theta = np.array([[0.03, 0.5]])
    traj, z_series = simulate_with_sensitivity(sc, theta)
    av = sc.av_indices[0]
    lam = descent_direction(traj, z_series[:, 0, :], av)
    steps = (1e-6, 1e-4)
    fd = np.empty(2)
    for j in range(2):
        up, dn = theta[0].copy(), theta[0].copy()
        up[j] += steps[j]
        dn[j] -= steps[j]
        fd[j] = (
            replayed_objective(traj, sc, av, ControllerParams(*up))
            - replayed_objective(traj, sc, av, ControllerParams(*dn))
        ) / (2 * steps[j])
    rel = np.abs(lam - fd) / np.abs(fd)
    ok = bool((rel <= 0.02).all())
    criterion(
        7,
        "sensitivity gradient matches replayed finite differences within 2%",
        ok,
        f"lambda={lam}, fd={fd}, rel err={rel}",
    )


def test_criterion_8_convergence_shape(tuned1, tuned2):
    details = []
    ok = True
    for label, (_, trace) in (("s1", tuned1), ("s2", tuned2)):
        j = trace.objectives
        monotone = bool((np.diff(j[4:]) <= 1e-12).all()) if len(j) > 5 else True
        converged = trace.reason == "converged" and len(trace) < 300
        final_dj = abs(j[-1] - j[-2]) if len(j) > 1 else 0.0
        ok = ok and monotone and converged and final_dj < 1e-6
        details.append(
            f"{label}: {len(trace)} iters, reason={trace.reason}, "
            f"final |dJ|={final_dj:.2e}, monotone after 5: {monotone}"
        )
    criterion(8, "objective non-increasing and converged before the cap", ok, "; ".join(details))


def test_criterion_9_controller_condition_suite():
    beta = 0.0642
    good = validate_controller_conditions(
        lambda s, dv: beta * np.arctan(1.0 * s * dv), alpha_claim=beta * math.pi / 2
    )
    const = validate_controller_conditions(
        lambda s, dv: np.full_like(np.asarray(s, dtype=float), 0.1), alpha_claim=0.2
    )
    lowcap = validate_controller_conditions(
        lambda s, dv: beta * np.arctan(1.0 * s * dv), alpha_claim=beta
    )
    falling = validate_controller_conditions(
        lambda s, dv: -0.01 * np.asarray(dv, dtype=float), alpha_claim=10.0
    )
    jump = validate_controller_conditions(
        lambda s, dv: 0.1 * np.sign(dv), alpha_claim=0.1
    )
    ok = (
        good.all_passed
        and not const.sign.passed
        and not lowcap.boundedness.passed
        and not falling.monotonicity.passed
        and not jump.smoothness.passed
    )
    criterion(
        9,
        "condition checks pass for arctan and catch broken controllers",
        ok,
        f"arctan all={good.all_passed}, const sign={const.sign.passed}, "
        f"lowcap bounded={lowcap.boundedness.passed}, "
        f"falling monotone={falling.monotonicity.passed}, "
        f"jump smooth={jump.smoothness.passed}",
    )


def test_criterion_10_dynamics_fixed_points():
    runs = {
        "idm table1": make_scenario(mpr=0.0, lead=FLAT_LEAD, window=(100.0, 400.0)),
        "idm table2": make_scenario(hv=IDM_2, mpr=0.0, lead=FLAT_LEAD, window=(100.0, 400.0)),
        "ovrv": make_scenario(mpr=1.0, kind="none", lead=FLAT_LEAD, window=(100.0, 400.0)),
    }
    deviations = {
        label: float(np.abs(simulate(sc).v - 21.0).max()) for label, sc in runs.items()
    }
    rdc = {
        "idm table1": rdc_check(IDM_1).passed,
        "idm table2": rdc_check(IDM_2).passed,
        "ovrv": rdc_check(OVRV_1).passed,
    }
    ok = all(dev < 1e-6 for dev in deviations.values()) and all(rdc.values())
    criterion(
        10,
        "equilibrium holds for 500 s and sign conditions pass",
        ok,
        f"max speed deviations {deviations}; rdc {rdc}",
    )

"""Gradient-based selection of the additive controller gains.

The objective J is the integrated squared speed gap between each controlled
AV and its predecessor; J, the trajectory and every blow-up come from a
plain real engine run. Its gradient with respect to the gains (beta, gamma)
has two modes. "exogenous" (the default) solves a linear sensitivity ODE per
AV that treats the AV's spacing and its predecessor's speed as exogenous
signals after the run: every integrator stage is rebuilt from its record in
blocks of steps, and z follows by a recurrence over the stage values with
the operations, in the order, of a co-integration in the engine's state.
"closed-loop" lets the engine differentiate itself: a second run in two
complex lanes steps gain g by i*h in lane g, so z = Im v / h and Im J / h
are the exact derivatives of the discrete closed loop (complex-step
differentiation; Squire & Trapp 1998; Martins, Sturdza & Alonso 2003).

Neither J nor z reads a follower behind the last AV, so the descent
integrates each step the gains cannot change once per call (`avblock`): its
first iteration runs the followers up to the last AV, and every later one
only the AV block up to it, resumed at the head's end.
`simulate_with_sensitivity` builds the block from its own run of the
platoon and takes z as the descent does. A projected fixed-step descent
clamps beta to its safety bound and gamma to non-negative values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass

import numpy as np

from .avblock import AvBlock, av_block, head_rows, scan, seeding_run
from .controller import ControllerParams, get_kernel
from .dynamics import ovrv_accel_arrays
from .errors import DomainError, NumericalBlowupError, OptimizeError
from .simulator import PlatoonEngine, Scenario, Trajectory, assemble_trajectory
from .stepping import rk4_step, stage_blocks, step_coefficients

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "objective_j",
    "descent_direction",
    "project_feasible",
    "simulate_with_sensitivity",
    "replayed_objective",
    "optimize",
    "write_trace_csv",
]

# steps per block of the sensitivity post-pass; bounds its stage arrays
_Z_BLOCK = 128
# the imaginary step of a closed-loop run's gains; no difference is taken,
# so it cancels nothing and may sit far below rounding
_H = 1e-30


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the projected descent.

    The descent tunes one (beta, gamma) pair shared by every AV. epsilon is
    the fixed step size; phi the convergence threshold on the change of the
    objective between iterations; beta_max the feasibility ceiling on beta;
    sensitivity the gradient's mode, "exogenous" or "closed-loop" (exact, at
    about twice the cost per iteration; see the module docstring).
    """

    beta_max: float
    theta0: ControllerParams = ControllerParams(0.05, 1.0)
    epsilon: float = 1e-5
    phi: float = 1e-6
    n_max: int = 300
    sensitivity: str = "exogenous"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not (math.isfinite(self.phi) and self.phi > 0):
            raise DomainError(f"phi must be positive and finite, got {self.phi}")
        if self.n_max < 1:
            raise DomainError(f"n_max must be at least 1, got {self.n_max}")
        if not (math.isfinite(self.beta_max) and self.beta_max > 0):
            raise DomainError(
                f"beta_max must be positive and finite, got {self.beta_max}"
            )
        _check_mode(self.sensitivity)


@dataclass
class OptimizationTrace:
    """Per-iteration history of the descent.

    thetas and lambdas have shape (iterations, 2): the shared (beta, gamma)
    pair and the descent direction summed over the AVs.
    """

    thetas: np.ndarray
    objectives: np.ndarray
    lambdas: np.ndarray
    reason: str

    def __len__(self) -> int:
        return len(self.objectives)

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.objectives))


def _objective(t, v, av_indices):
    """J of the speeds `v` (time, [lanes,] vehicle), one value per lane."""
    total = 0.0
    for i in av_indices:
        gap = v[..., i] - v[..., i - 1]
        total += 0.5 * np.trapezoid(gap**2, t, axis=0)
    return total


def _direction(t, v, z_series, av_index) -> np.ndarray:
    gap = v[:, av_index] - v[:, av_index - 1]
    return np.trapezoid(z_series * gap[:, None], t, axis=0)


def objective_j(traj: Trajectory, av_indices) -> float:
    """Integrated half squared speed gap, summed over the controlled AVs."""
    av_indices = tuple(av_indices)
    if not av_indices:
        raise DomainError("objective needs at least one controlled AV")
    if min(av_indices) < 1 or max(av_indices) >= traj.n_vehicles:
        raise DomainError(f"AV indices {av_indices} out of range")
    return _objective(traj.t, traj.v, av_indices)


def descent_direction(traj: Trajectory, z_series: np.ndarray, av_index: int) -> np.ndarray:
    """Gradient estimate: integral of z(t) times the AV speed gap."""
    z_series = np.asarray(z_series, dtype=float)
    if z_series.shape[0] != len(traj.t):
        raise DomainError(
            f"sensitivity series length {z_series.shape[0]} does not match "
            f"trajectory grid {len(traj.t)}"
        )
    return _direction(traj.t, traj.v, z_series, av_index)


def project_feasible(theta, beta_max: float) -> ControllerParams:
    """Clamp beta into [0, beta_max] and gamma into [0, inf).

    Accepts ControllerParams or a raw (beta, gamma) pair, since tentative
    descent updates may leave the feasible box before projection.
    """
    if beta_max <= 0:
        raise DomainError(f"beta_max must be positive, got {beta_max}")
    if isinstance(theta, ControllerParams):
        b, g = theta.beta, theta.gamma
    else:
        b, g = float(theta[0]), float(theta[1])
    return ControllerParams(beta=min(max(b, 0.0), beta_max), gamma=max(g, 0.0))


def _check_mode(mode: str) -> None:
    if mode not in ("exogenous", "closed-loop"):
        raise DomainError(f"sensitivity mode must be 'exogenous' or 'closed-loop', got {mode!r}")


def _z_terms(stage, beta, gamma, kernel, p, cols):
    """The exogenous sensitivity rate at one `rhs` tuple, at the AV entries.

    zdot = drdv*z + forcing for the AV speed equation
    r = k1*(s - eta - tau*v) + k2*dv + beta*kernel(w), w = gamma*s*dv
    formed as `PlatoonEngine.control_input` forms it. `beta` and `gamma` are
    the gains every AV shares, `cols` the AV columns of the follower axis.
    Returns drdv shaped (..., n_av) and the forcing [dr/dbeta, dr/dgamma]
    shaped (..., n_av, 2).
    """
    _, s, dv, _ = stage
    s, dv = s[..., cols], dv[..., cols]
    w = gamma * s * dv
    kp = kernel.deriv(w)
    beta_gamma = beta * gamma
    drdv = -p.k1 * p.tau - (p.k2 + beta_gamma * s * kp)
    forcing = np.stack([kernel.fn(w), beta * s * dv * kp], axis=-1)
    return drdv, forcing


def _tunable(scenario: Scenario) -> tuple[int, ...]:
    """The AVs of `scenario`; a DomainError unless a ts-ops platoon has one."""
    av = scenario.av_indices
    if not av:
        raise DomainError("scenario has no AV to tune")
    if scenario.controller.kind != "ts-ops":
        raise DomainError(
            f"only the 'ts-ops' controller is tunable, got "
            f"{scenario.controller.kind!r}"
        )
    return av


def _sensitivities(block: AvBlock, theta, raw: dict) -> np.ndarray:
    """The exogenous AV gain sensitivities z = dv/d(beta, gamma) of a run.

    `theta` is the (beta, gamma) pair every AV shares and `raw` a run's
    record of the AV block's `x` and `v` over the whole horizon. z is
    exactly 0 through the block's head; from its end, each block of
    `_Z_BLOCK` steps rebuilds its states' stages in one engine whose batch
    axis is the step index, then advances each (AV, gain) entry of z step by
    step through the linear rate at those stages; the entries are
    independent and few, so plain floats are cheaper here than arrays, with
    the same bits. Returns z with shape (n_samples, n_av, 2), z(0) = 0; a
    non-finite z raises NumericalBlowupError naming the lowest AV whose row
    failed at the first such step.
    """
    scenario = block.scenario
    av = np.subtract(block.av, 1)
    n = scenario.n_followers
    rk4 = scenario.integrator == "rk4"
    dt, steps = scenario.dt, scenario.steps
    rk4_c = step_coefficients(dt)
    beta, gamma = np.reshape(theta, (2, 1))
    kernel = get_kernel(scenario.controller.kernel)
    engine = PlatoonEngine(scenario, beta=beta, gamma=gamma, av_mask=block.av_mask[None])
    z_series = np.zeros((steps + 1, len(av), 2))

    # stage i's rate at y, with the coefficients of the step in progress
    def rate(i, y):
        return d[i] * y + f[i]

    blocks = stage_blocks(
        engine, block.lead, raw["x"], raw["v"][:, 1:], _Z_BLOCK, block.head.steps
    )
    for k0, k1, stages, y_new in blocks:
        # (step, stage, AV[, gain]) coefficients
        drdv, forcing = (
            np.stack(terms, axis=1)
            for terms in zip(*(
                _z_terms(stage, beta, gamma, kernel, scenario.av_model, av)
                for stage in stages
            ))
        )
        clamped = y_new[:, n + 1 + av] < 0
        z_block = z_series[k0 + 1 : k1 + 1]
        for col, g in np.ndindex(len(av), 2):
            z, out = float(z_series[k0, col, g]), []
            coefficients = drdv[:, :, col], forcing[:, :, col, g], clamped[:, col]
            for d, f, clamp in zip(*(c.tolist() for c in coefficients)):
                f1 = rate(0, z)
                z = rk4_step(z, rk4_c, f1, rate) if rk4 else z + dt * f1
                # d max(v, 0)/dv = 0: a clamped speed carries no sensitivity
                z = 0.0 if clamp else z
                out.append(z)
            z_block[:, col, g] = out
        finite = np.isfinite(z_block)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=(1, 2))))
            col = int(np.argmin(finite[row].all(axis=-1)))
            raise NumericalBlowupError(
                block.first + int(av[col]) + 1, raw["t"][k0 + 1 + row]
            )
    return z_series


def _sensitivity_run(block: AvBlock, theta, mode: str, raw: dict | None = None) -> dict:
    """A plain `PlatoonEngine.run` of the AV block with the (beta, gamma)
    pair `theta` on every AV, resumed at the end of its head and recording
    x and v, plus the AV sensitivities `z`, from the record ("exogenous")
    or, after it, from a complex run whose lane g steps gain g by i*h
    ("closed-loop"; its speeds are `v_c`, shaped (time, lane, vehicle)).
    `raw`, the block's record of a run at `theta` already made, takes the
    real run's place. The first closed-loop run of a block runs from step 0
    and finds the complex lanes' head, which later ones resume from. Errors
    number vehicles in the platoon."""
    # 1-element arrays, not floats: NumPy multiplies them faster
    gains = np.reshape(theta, (2, 1))
    if raw is None:
        raw = block.run(*gains, ("x", "v"), block.head)
    if mode == "closed-loop":
        # lane g holds gain g + i*h; each gain is shaped (lanes, 1)
        lanes = (gains + 1j * _H * np.eye(2))[..., None]
        if block.head_c is None:
            raw_c = block.run(*lanes, ("x", "v"))
            engine = PlatoonEngine(
                block.scenario, beta=lanes[0], gamma=lanes[1], av_mask=block.av_mask[None, None]
            )
            steps, hits, _ = scan(
                engine, block.lead, raw_c["x"], raw_c["v"][..., 1:],
                np.subtract(block.av, 1), slice(None),
            )
            block.head_c = head_rows(raw_c, slice(None), steps, hits)
        else:
            raw_c = block.run(*lanes, ("v",), block.head_c)
        raw["v_c"] = raw_c["v"]
    if mode == "closed-loop":
        raw["z"] = raw["v_c"][..., list(block.av)].imag.swapaxes(1, 2) / _H
    else:
        raw["z"] = _sensitivities(block, theta, raw)
    return raw


def simulate_with_sensitivity(
    scenario: Scenario,
    theta_av: np.ndarray,
    mode: str = "exogenous",
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the platoon, and the per-AV gain sensitivities as the descent does.

    theta_av is the (beta, gamma) pair every AV shares, as a pair or as one
    (1, 2) row. Returns the trajectory and the sensitivity series with shape
    (n_samples, n_av, 2), z(0) = 0. The platoon is integrated once; its
    record gives the AV block (`av_block`) and that block's columns, from
    which `_sensitivity_run` takes z as the descent does ("closed-loop": a
    complex run of the block). A non-finite z raises NumericalBlowupError
    naming the lowest AV whose row failed ("closed-loop": the vehicle whose
    speed did).
    """
    theta = np.asarray(theta_av, dtype=float)
    if theta.shape not in ((2,), (1, 2)):
        raise DomainError(f"theta_av must be one (beta, gamma) pair, not shape {theta.shape}")
    _check_mode(mode)
    _tunable(scenario)
    beta, gamma = np.reshape(theta, (2, 1))
    raw = PlatoonEngine(scenario, beta=beta, gamma=gamma).run()
    block = av_block(scenario, raw, scenario.av_indices[-1])
    z_series = _sensitivity_run(block, theta, mode, block.columns(raw))["z"]
    return assemble_trajectory(scenario, raw), z_series


def replayed_objective(
    traj: Trajectory,
    scenario: Scenario,
    av_index: int,
    theta: ControllerParams,
    kernel: str = "arctan",
) -> float:
    """Objective with the AV speed re-solved against frozen exogenous signals.

    The spacing and predecessor-speed series are taken from `traj` as given
    functions of time; only the AV's own speed ODE is integrated for the
    supplied gains. This matches the structure assumed by the sensitivity
    ODE, so its finite differences are the reference for the gradient.
    """
    k = get_kernel(kernel)
    t = traj.t
    dt = float(t[1] - t[0])
    s_sig = traj.s[:, av_index]
    vp_sig = traj.v[:, av_index - 1]
    s_mid = 0.5 * (s_sig[:-1] + s_sig[1:])
    vp_mid = 0.5 * (vp_sig[:-1] + vp_sig[1:])
    av = scenario.av_model

    def rate(s, vp, v):
        dv = vp - v
        return ovrv_accel_arrays(s, dv, v, av) + theta.beta * k.fn(
            theta.gamma * s * dv
        )

    v = float(traj.v[0, av_index])
    v_series = np.empty_like(s_sig)
    v_series[0] = v
    rk4 = scenario.integrator == "rk4"
    for i in range(len(t) - 1):
        k1 = rate(s_sig[i], vp_sig[i], v)
        if rk4:
            k2 = rate(s_mid[i], vp_mid[i], v + dt / 2 * k1)
            k3 = rate(s_mid[i], vp_mid[i], v + dt / 2 * k2)
            k4 = rate(s_sig[i + 1], vp_sig[i + 1], v + dt * k3)
            v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            v = v + dt * k1
        v_series[i + 1] = v
    return float(0.5 * np.trapezoid((v_series - vp_sig) ** 2, t))


def _descent_terms(
    block: AvBlock, theta, mode: str, raw: dict | None = None
) -> tuple[float, np.ndarray]:
    """J and the AV-summed direction at the shared gains theta, from a run of
    the AV block, or from `raw`, its record at theta ("closed-loop": Im J / h
    of the complex lanes). The record dies with this call, before the next
    iteration's run."""
    raw = _sensitivity_run(block, theta, mode, raw)
    t, v, z_series = raw["t"], raw["v"], raw["z"]
    j_val = _objective(t, v, block.av)
    if mode == "closed-loop":
        return j_val, _objective(t, raw["v_c"], block.av).imag / _H
    lam = np.stack(
        [_direction(t, v, z_series[:, row], i) for row, i in enumerate(block.av)]
    ).sum(axis=0)
    return j_val, lam


def optimize(
    scenario: Scenario, cfg: OptimizerConfig
) -> tuple[ControllerParams, OptimizationTrace]:
    """Projected descent on the (beta, gamma) pair shared by the AVs.

    Every step that the gains cannot change is integrated once per call.
    The first iteration runs the followers up to the last AV with `theta0`
    (`seeding_run`); that record gives the AV block (`av_block`: the
    prefix's stage speeds and the gain-free head) and the first iteration's
    J and direction. Each later iteration simulates the AV block with the
    current gains from the end of its head (recording only `x` and `v`),
    integrates the sensitivities from there, sums the descent direction
    over the AVs, and updates the gains with a fixed step, projecting onto
    the feasible box. Stops when the objective change drops to the
    threshold, the direction vanishes, or the iteration cap is reached.
    Returns the best-objective gains and the full trace.
    """
    theta = np.array(astuple(project_feasible(cfg.theta0, cfg.beta_max)))

    thetas, objectives, lambdas = [], [], []
    reason = "max-iterations"

    def make_trace():
        return OptimizationTrace(
            thetas=np.array(thetas),
            objectives=np.array(objectives),
            lambdas=np.array(lambdas),
            reason=reason,
        )

    try:
        last = _tunable(scenario)[-1]
        raw, _ = seeding_run(scenario, *np.reshape(theta, (2, 1)), last)
        block = av_block(scenario, raw, last)
        raw = block.columns(raw)
        for kappa in range(1, cfg.n_max + 1):
            j_val, lam = _descent_terms(block, theta, cfg.sensitivity, raw)
            raw = None
            thetas.append(theta)
            objectives.append(j_val)
            lambdas.append(lam)

            if not lam.any() or (
                kappa > 1 and abs(objectives[-1] - objectives[-2]) <= cfg.phi
            ):
                reason = "converged"
                break
            if kappa == cfg.n_max:
                break
            theta = np.array(
                astuple(project_feasible(theta - cfg.epsilon * lam, cfg.beta_max))
            )
    except NumericalBlowupError as err:
        reason = "blow-up"
        raise OptimizeError(str(err), make_trace()) from err

    trace = make_trace()
    best = trace.thetas[trace.best_index]
    return ControllerParams(beta=float(best[0]), gamma=float(best[1])), trace


def write_trace_csv(trace: OptimizationTrace, path) -> None:
    """Export a trace as iter,beta,gamma,J,lambda_beta,lambda_gamma."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "beta", "gamma", "J", "lambda_beta", "lambda_gamma"])
        for k in range(len(trace)):
            values = (*trace.thetas[k], trace.objectives[k], *trace.lambdas[k])
            writer.writerow([k + 1, *(f"{val:.10g}" for val in values)])

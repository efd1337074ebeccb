"""Gradient-based selection of the additive controller gains.

The objective is the integrated squared speed gap between each controlled AV
and its predecessor. Its gradient with respect to the gains (beta, gamma) is
obtained from a two-component sensitivity ODE per AV: the sensitivity treats
the AV's spacing and its predecessor's speed as exogenous signals, so it
differentiates exactly the AV's own speed equation. That ODE is linear and
never feeds back into the platoon, so it is solved after a plain engine run:
the run records x and v, every integrator stage is rebuilt from the record
in blocks of steps, and z follows by a short linear recurrence over the
stage values with the same operations, in the same order, as a
co-integration in the engine's state would use; the rate's terms, the
kernel's value among them, are formed here from each stage's s and dv.
Neither J nor z reads a follower ahead of the first AV, which does not
depend on the gains, or one behind the last AV, so the descent integrates
those ahead once per call and then, each iteration, only the AV block from
the first AV to the last, behind a leader that replays the prefix's last
follower stage by stage. That run of the block is the one path to z:
`simulate_with_sensitivity` takes its z from it too, and runs the whole
platoon for the trajectory only. A projected fixed-step descent clamps beta
to its safety bound and gamma to non-negative values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .controller import ControllerParams, get_kernel
from .dynamics import ovrv_accel_arrays
from .errors import DomainError, NumericalBlowupError, OptimizeError
from .simulator import (
    PlatoonEngine,
    Scenario,
    Trajectory,
    assemble_trajectory,
    rk4_step,
)

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


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the projected descent.

    The descent tunes one (beta, gamma) pair shared by every AV. epsilon is
    the fixed step size; phi the convergence threshold on the change of the
    objective between iterations; beta_max the feasibility ceiling on beta.
    sensitivity="coupled" additionally propagates the spacing sensitivity
    (experimental comparison mode).
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


def _objective(t, v, av_indices) -> float:
    total = 0.0
    for i in av_indices:
        gap = v[:, i] - v[:, i - 1]
        total += 0.5 * np.trapezoid(gap**2, t)
    return float(total)


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
    if mode not in ("exogenous", "coupled"):
        raise DomainError(
            f"sensitivity mode must be 'exogenous' or 'coupled', got {mode!r}"
        )


def _z_terms(stage, beta, gamma, kernel, p, cols):
    """The linear sensitivity rate at one `rhs` tuple, at the AV entries.

    zdot = drdv*z + forcing (+ drds*zs for "coupled") for the AV speed
    equation r = k1*(s - eta - tau*v) + k2*dv + beta*kernel(w), w = gamma*s*dv
    formed as `PlatoonEngine.control_input` forms it. `beta` and `gamma` are
    the gains every AV shares, `cols` the AV columns of the follower axis.
    Returns drdv and drds shaped (..., n_av) and the forcing
    [dr/dbeta, dr/dgamma] shaped (..., n_av, 2).
    """
    _, s, dv, _ = stage
    s, dv = s[..., cols], dv[..., cols]
    w = gamma * s * dv
    kp = kernel.deriv(w)
    beta_gamma = beta * gamma
    drdv = -p.k1 * p.tau - (p.k2 + beta_gamma * s * kp)
    forcing = np.stack([kernel.fn(w), beta * s * dv * kp], axis=-1)
    drds = p.k1 + beta_gamma * dv * kp
    return drdv, forcing, drds


def _z_steps(z, rows, dt: float, rk4: bool, coupled: bool):
    """Advance one (AV, gain) entry of the sensitivities through a block.

    `z` is the entry's z, a float, or its [z, zs] pair for "coupled". Each
    of `rows` holds one step's drdv, forcing and drds, one value per stage,
    and whether the step clamped the AV's speed. The entries are independent
    and few, so plain floats are cheaper here than arrays, with the same
    bits. Returns z after each step and the last state.
    """
    # stage i's rate at y, with the coefficients of the step in progress
    def rate(i, y):
        if coupled:
            return np.array([d[i] * y[0] + f[i] + c[i] * y[1], -y[0]])
        return d[i] * y + f[i]

    out = []
    for d, f, c, clamp in rows:
        f1 = rate(0, z)
        z = rk4_step(z, dt, f1, rate) if rk4 else z + dt * f1
        if clamp:
            # d max(v, 0)/dv = 0: a clamped speed carries no sensitivity
            z = np.array([0.0, z[1]]) if coupled else 0.0
        out.append(z[0] if coupled else z)
    return out, z


@dataclass(frozen=True)
class _AvBlock:
    """The followers from the first AV to the last, as a platoon of their own.

    Followers ahead of the first AV do not depend on the gains, and J and z
    read nothing behind the last AV, so the descent integrates only this
    block. `scenario` holds its followers only; `first` is the platoon index
    of its leader, the first AV's predecessor, whose four-stage speed table
    is `lead`; `initial` holds the block's columns of the whole platoon's
    initial state, so a run of the block equals those columns of the
    platoon's run bit for bit. `av` lists the AV followers, block-relative;
    `scenario.mpr` is still the platoon's, so every engine of the block is
    given `av_mask`.
    """

    scenario: Scenario
    first: int
    av: tuple[int, ...]
    lead: tuple[np.ndarray, ...]
    initial: tuple[np.ndarray, np.ndarray]

    @property
    def av_mask(self) -> np.ndarray:
        mask = np.zeros(self.scenario.n_followers, dtype=bool)
        mask[np.subtract(self.av, 1)] = True
        return mask


def _stage_blocks(engine: PlatoonEngine, lead, x, v):
    """The steps of a recorded run, rebuilt in blocks of `_Z_BLOCK` steps.

    `x` and `v` are the record's states (`v` without the leader column) and
    `lead` the leader's four-stage table; `engine` evaluates each block with
    the step index as its batch axis. Yields the block's first and end step,
    `rhs`'s tuples at each of its stages and the unclamped states after it.
    """
    steps = len(x) - 1
    for k0 in range(0, steps, _Z_BLOCK):
        k1 = min(k0 + _Z_BLOCK, steps)
        first = engine.rhs(lead[0][k0:k1], x[k0:k1], v[k0:k1])
        y = np.concatenate([x[k0:k1], v[k0:k1]], axis=-1)
        later = []
        y_new = engine.step(y, first[0], [s[k0:k1] for s in lead[1:]], later)
        yield k0, k1, [first, *later], y_new


def _av_block(scenario: Scenario) -> _AvBlock:
    """The AV block of `scenario`.

    Its leader's stage speeds are rebuilt from a run of the prefix, the
    all-HV followers ahead of the first AV, in one step-batched
    `rhs`/`step`. Only a ts-ops platoon with an AV has a block.
    """
    av = scenario.av_indices
    if not av:
        raise DomainError("scenario has no AV to tune")
    if scenario.controller.kind != "ts-ops":
        raise DomainError(
            f"only the 'ts-ops' controller is tunable, got "
            f"{scenario.controller.kind!r}"
        )
    first = av[0] - 1
    x0, v0 = PlatoonEngine(scenario).initial_arrays()
    lead = scenario.lead.stage_speeds(scenario.dt, scenario.steps)
    if first:
        prefix = PlatoonEngine(
            replace(scenario, n_followers=first, init_spacing=None),
            av_mask=np.zeros(first, dtype=bool),
        )
        raw = prefix.run(record=("x", "v"), initial=(x0[: first + 1], v0[:first]))
        x, v = raw["x"], raw["v"][:, 1:]
        # the prefix's last follower: its recorded speeds, then its speeds
        # at the later stages, which are the x slots of those stages' rates
        later = []
        if scenario.integrator == "rk4":
            later = [np.empty(scenario.steps) for _ in range(3)]
            for k0, k1, stages, _ in _stage_blocks(prefix, lead, x, v):
                for out, stage in zip(later, stages[1:]):
                    out[k0:k1] = stage[0][:, first]
        lead = (v[:, -1].copy(), *later)
    block = replace(scenario, n_followers=av[-1] - first, init_spacing=None)
    return _AvBlock(
        block, first, tuple(i - first for i in av), lead,
        (x0[first : av[-1] + 1], v0[first : av[-1]]),
    )


def _sensitivities(block: _AvBlock, theta, raw: dict, mode: str) -> np.ndarray:
    """The AV gain sensitivities z = dv/d(beta, gamma) of a recorded run.

    `theta` is the (beta, gamma) pair every AV shares and `raw` a run's
    record of the AV block's `x` and `v` over the whole horizon. Each block of
    `_Z_BLOCK` steps rebuilds its states' stages in one engine whose batch
    axis is the step index, then advances z step by step through the linear
    rate at those stages. "coupled" adds the spacing sensitivity zs, zsdot =
    -z, which feeds back through dr/ds. Returns z with shape (n_samples,
    n_av, 2), z(0) = 0; a non-finite z raises NumericalBlowupError naming
    the lowest AV whose row failed at the first such step.
    """
    scenario = block.scenario
    av = np.subtract(block.av, 1)
    n = scenario.n_followers
    coupled = mode == "coupled"
    rk4 = scenario.integrator == "rk4"
    dt, steps = scenario.dt, scenario.steps
    beta, gamma = np.reshape(theta, (2, 1))
    kernel = get_kernel(scenario.controller.kernel)
    engine = PlatoonEngine(scenario, beta=beta, gamma=gamma, av_mask=block.av_mask[None])
    z_series = np.zeros((steps + 1, len(av), 2))
    # one state per (AV, gain) entry
    states = [[np.zeros(2) if coupled else 0.0 for _ in range(2)] for _ in av]
    for k0, k1, stages, y_new in _stage_blocks(engine, block.lead, raw["x"], raw["v"][:, 1:]):
        # (step, stage, AV[, gain]) coefficients
        drdv, forcing, drds = (
            np.stack(terms, axis=1)
            for terms in zip(*(
                _z_terms(stage, beta, gamma, kernel, scenario.av_model, av)
                for stage in stages
            ))
        )
        clamped = y_new[:, n + 1 + av] < 0
        z_block = z_series[k0 + 1 : k1 + 1]
        for col, state in enumerate(states):
            for g in range(2):
                rows = zip(
                    drdv[:, :, col].tolist(), forcing[:, :, col, g].tolist(),
                    drds[:, :, col].tolist(), clamped[:, col].tolist(),
                )
                z_block[:, col, g], state[g] = _z_steps(state[g], rows, dt, rk4, coupled)
        finite = np.isfinite(z_block)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=(1, 2))))
            col = int(np.argmin(finite[row].all(axis=-1)))
            raise NumericalBlowupError(
                block.first + int(av[col]) + 1, raw["t"][k0 + 1 + row]
            )
    return z_series


def _sensitivity_run(block: _AvBlock, theta, mode: str) -> dict:
    """A plain `PlatoonEngine.run` of the AV block with the (beta, gamma)
    pair `theta` on every AV, recording x and v, plus the AV sensitivities
    `z` integrated from its record. Vehicles in errors are numbered in the
    whole platoon."""
    # 1-element arrays, not floats: NumPy multiplies them faster
    beta, gamma = np.reshape(theta, (2, 1))
    engine = PlatoonEngine(block.scenario, beta=beta, gamma=gamma, av_mask=block.av_mask)
    try:
        raw = engine.run(record=("x", "v"), lead=block.lead, initial=block.initial)
    except NumericalBlowupError as err:
        raise NumericalBlowupError(block.first + err.vehicle, err.time) from None
    raw["z"] = _sensitivities(block, theta, raw, mode)
    return raw


def simulate_with_sensitivity(
    scenario: Scenario,
    theta_av: np.ndarray,
    mode: str = "exogenous",
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the platoon, and the per-AV gain sensitivities as the descent does.

    theta_av is the (beta, gamma) pair every AV shares, as a pair or as one
    (1, 2) row. Returns the trajectory and the sensitivity series with shape
    (n_samples, n_av, 2), z(0) = 0, from a run of the AV block
    (`_sensitivity_run`), which equals the block's columns of the platoon
    bit for bit. A non-finite z raises NumericalBlowupError naming the
    lowest AV whose row failed.
    """
    theta = np.asarray(theta_av, dtype=float)
    if theta.shape not in ((2,), (1, 2)):
        raise DomainError(f"theta_av must be one (beta, gamma) pair, not shape {theta.shape}")
    _check_mode(mode)
    block = _av_block(scenario)
    beta, gamma = np.reshape(theta, (2, 1))
    raw = PlatoonEngine(scenario, beta=beta, gamma=gamma).run()
    z_series = _sensitivity_run(block, theta, mode)["z"]
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


def _descent_terms(block: _AvBlock, theta, mode: str) -> tuple[float, np.ndarray]:
    """J and the AV-summed direction at the shared gains theta, from a run of
    the AV block. The run's record dies with this call, before the next
    iteration's run."""
    raw = _sensitivity_run(block, theta, mode)
    t, v, z_series = raw["t"], raw["v"], raw["z"]
    j_val = _objective(t, v, block.av)
    lam = np.stack(
        [_direction(t, v, z_series[:, row], i) for row, i in enumerate(block.av)]
    ).sum(axis=0)
    return j_val, lam


def optimize(
    scenario: Scenario, cfg: OptimizerConfig
) -> tuple[ControllerParams, OptimizationTrace]:
    """Projected descent on the (beta, gamma) pair shared by the AVs.

    The followers ahead of the first AV are integrated once (`_av_block`).
    Each iteration then simulates the AV block with the current gains
    (recording only `x` and `v`), integrates the sensitivities from that
    record, sums the descent direction over the AVs, and updates the gains
    with a fixed step, projecting onto the feasible box. Stops when the
    objective change drops to the threshold, the direction vanishes, or the
    iteration cap is reached. Returns the best-objective gains and the full
    trace.
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
        # the prefix ahead of the first AV does not depend on theta, so it
        # is integrated once, here
        block = _av_block(scenario)
        for kappa in range(1, cfg.n_max + 1):
            j_val, lam = _descent_terms(block, theta, cfg.sensitivity)
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
            writer.writerow(
                [
                    k + 1,
                    f"{trace.thetas[k, 0]:.10g}",
                    f"{trace.thetas[k, 1]:.10g}",
                    f"{trace.objectives[k]:.10g}",
                    f"{trace.lambdas[k, 0]:.10g}",
                    f"{trace.lambdas[k, 1]:.10g}",
                ]
            )

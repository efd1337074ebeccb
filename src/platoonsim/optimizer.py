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
integrates each step the gains cannot change once per call (`avblock`), and
every iteration is one `_descent_terms` call, which runs the AV block up to
the last AV from the head's end; the closed-loop mode's complex lanes
resume there too.
`simulate_with_sensitivity` is `simulate` plus the descent's first
iteration's z. A projected fixed-step descent clamps beta to its safety
bound and gamma to non-negative values.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace

import numpy as np

from .avblock import AvBlock, av_block
from .controller import ControllerParams, get_kernel
from .dynamics import ovrv_accel_arrays
from .errors import DomainError, NumericalBlowupError, OptimizeError
from .simulator import PlatoonEngine, Scenario, Trajectory, simulate
from .stepping import rk4_step, step_coefficients

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "objective_j",
    "descent_direction",
    "project_feasible",
    "simulate_with_sensitivity",
    "replayed_objective",
    "optimize",
]

# the imaginary step of a closed-loop run's gains; no difference is taken,
# so it cancels nothing and may sit far below rounding
_H = 1e-30


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the projected descent.

    The descent tunes one (beta, gamma) pair shared by every AV. epsilon is
    the fixed step size; phi the convergence threshold on the change of the
    objective between iterations; beta_max the feasibility ceiling on beta;
    sensitivity the gradient's mode, "exogenous" or "closed-loop" (exact;
    see the module docstring).
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
    if not 1 <= av_index < traj.n_vehicles:
        raise DomainError(f"AV index {av_index} out of range")
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
    if not beta_max > 0:  # NaN too
        raise DomainError(f"beta_max must be positive, got {beta_max}")
    if isinstance(theta, ControllerParams):
        b, g = theta.beta, theta.gamma
    else:
        b, g = float(theta[0]), float(theta[1])
    return ControllerParams(beta=min(max(b, 0.0), beta_max), gamma=max(g, 0.0))


def _check_mode(mode: str) -> None:
    if mode not in ("exogenous", "closed-loop"):
        raise DomainError(f"sensitivity mode must be 'exogenous' or 'closed-loop', got {mode!r}")


def _z_terms(s, dv, beta, gamma, kernel, p):
    """The exogenous sensitivity rate of every AV's complex sensitivity
    zeta = z_beta + i*z_gamma at its spacings `s` and relative speeds `dv`.

    zeta' = d*zeta + phi for the AV speed equation
    r = k1*(s - eta - tau*v) + k2*dv + beta*kernel(w), w = gamma*s*dv
    formed as `PlatoonEngine.control_input` forms it: d = dr/dv is real and
    shared by both gains, phi = dr/dbeta + i*dr/dgamma. `beta` and `gamma`
    are the gains every AV shares. Returns d and phi shaped as `s`.
    """
    w = gamma * s * dv
    kp = kernel.deriv(w)
    d = -p.k1 * p.tau - (p.k2 + beta * gamma * s * kp)
    # both parts as computed, with no complex arithmetic on them
    phi = np.stack([kernel.fn(w), beta * s * dv * kp], axis=-1).view(complex)[..., 0]
    return d, phi


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


def _sensitivities(block: AvBlock, engine: PlatoonEngine, raw: dict) -> np.ndarray:
    """The exogenous AV gain sensitivities z = dv/d(beta, gamma) of a run.

    `raw` is a record of the AV block's `x` and `v` from step 0, `engine`
    the block's engine that ran it (`AvBlock.run`), whose gains are the
    (beta, gamma) pair every AV shares. z is exactly 0 through the block's
    head; from its end, each block of `PlatoonEngine.stage_blocks` steps
    rebuilds its states' stages in one engine whose batch axis is the step
    index, then advances each AV's zeta = z_beta + i*z_gamma step by step
    as one Python complex (cheaper than arrays for so few entries): the
    RK4 of the linear rate d*zeta + phi written out with `rk4_step`'s
    operations in its order, which give both parts the bits of two real
    recurrences. Returns z with shape (n_samples, n_av, 2), a view of the
    complex series, z(0) = 0; a non-finite z raises NumericalBlowupError
    naming the lowest AV whose row failed at the first such step.
    """
    scenario = block.scenario
    av = np.subtract(block.av, 1)
    rk4 = scenario.integrator == "rk4"
    half, full, sixth, two = step_coefficients(scenario.dt)
    kernel = get_kernel(scenario.controller.kernel)
    z_series = np.zeros((len(raw["t"]), len(av)), complex)
    for k0, k1, stages, floored in engine.stage_blocks(block.lead, raw, block.head):
        # (stage, AV, step) spacings and relative speeds, rates and forcings
        s, dv = (np.stack([stage[i][av] for stage in stages]) for i in (1, 2))
        d, phi = _z_terms(s, dv, engine.beta, engine.gamma, kernel, scenario.av_model)
        z_block = z_series[k0 + 1 : k1 + 1]
        for col, clamped in enumerate(floored[av].tolist()):
            z, out = z_series[k0, col].item(), []
            # per step: each stage's rate and forcing, the clamp
            terms = zip(*d[:, col].tolist(), *phi[:, col].tolist(), clamped)
            # d max(v, 0)/dv = 0: a clamped speed carries no sensitivity
            if rk4:
                for d1, d2, d3, d4, f1, f2, f3, f4, clamp in terms:
                    p1 = d1 * z + f1
                    p2 = d2 * (z + half * p1) + f2
                    p3 = d3 * (z + half * p2) + f3
                    p4 = d4 * (z + full * p3) + f4
                    z = 0j if clamp else z + sixth * (p1 + two * p2 + two * p3 + p4)
                    out.append(z)
            else:
                for d1, f1, clamp in terms:
                    z = 0j if clamp else z + full * (d1 * z + f1)
                    out.append(z)
            z_block[:, col] = out
        finite = np.isfinite(z_block)
        if not finite.all():
            row = int(np.argmin(finite.all(axis=1)))
            raise NumericalBlowupError(
                block.first + int(av[np.argmin(finite[row])]) + 1, raw["t"][k0 + 1 + row]
            )
    return z_series[..., None].view(float)


def simulate_with_sensitivity(
    scenario: Scenario,
    theta_av: np.ndarray,
    mode: str = "exogenous",
) -> tuple[Trajectory, np.ndarray]:
    """Integrate the platoon, and the per-AV gain sensitivities as the descent does.

    theta_av is the (beta, gamma) pair every AV shares, as a pair or as one
    (1, 2) row. Returns the trajectory and the sensitivity series with shape
    (n_samples, n_av, 2), z(0) = 0. The trajectory is `simulate`'s, with
    theta as the controller's gains, so a blow-up anywhere in the platoon is
    raised first; z is the descent's first iteration's: `av_block` to the
    last AV, then `_descent_terms` ("closed-loop": a complex run of the
    block). A non-finite z raises NumericalBlowupError naming the
    lowest AV whose row failed ("closed-loop": the vehicle whose speed did).
    """
    theta = np.asarray(theta_av, dtype=float)
    if theta.shape not in ((2,), (1, 2)):
        raise DomainError(f"theta_av must be one (beta, gamma) pair, not shape {theta.shape}")
    _check_mode(mode)
    last = _tunable(scenario)[-1]
    beta, gamma = theta.ravel().tolist()
    ctrl = replace(scenario.controller, beta=beta, gamma=gamma)
    traj = simulate(replace(scenario, controller=ctrl))
    block = av_block(scenario, *np.reshape(theta, (2, 1)), last)[0]
    return traj, _descent_terms(block, theta, mode)[2]


def replayed_objective(
    traj: Trajectory,
    scenario: Scenario,
    av_index: int,
    theta: ControllerParams,
) -> float:
    """Objective with the AV speed re-solved against frozen exogenous signals.

    The spacing and predecessor-speed series are taken from `traj` as given
    functions of time; only the AV's own speed ODE is integrated for the
    supplied gains, under the scenario's kernel. This matches the structure
    assumed by the sensitivity ODE, so its finite differences are the
    reference for the gradient.
    """
    k = get_kernel(scenario.controller.kernel)
    t = traj.t
    s_sig = traj.s[:, av_index - 1]
    vp_sig = traj.v[:, av_index - 1]
    s_mid = 0.5 * (s_sig[:-1] + s_sig[1:])
    vp_mid = 0.5 * (vp_sig[:-1] + vp_sig[1:])
    # the signals at each RK4 stage of a step: its start, the half step
    # twice, its end
    s_at = (s_sig, s_mid, s_mid, s_sig[1:])
    vp_at = (vp_sig, vp_mid, vp_mid, vp_sig[1:])
    av = scenario.av_model
    c = step_coefficients(float(t[1] - t[0]))

    def rate(j, v):
        # the AV's acceleration at stage j of step i
        s, dv = s_at[j][i], vp_at[j][i] - v
        return ovrv_accel_arrays(s, dv, v, av) + theta.beta * k.fn(theta.gamma * s * dv)

    v = float(traj.v[0, av_index])
    v_series = np.empty_like(s_sig)
    v_series[0] = v
    rk4 = scenario.integrator == "rk4"
    for i in range(len(t) - 1):
        f1 = rate(0, v)
        v = rk4_step(v, c, f1, rate) if rk4 else v + c[1] * f1
        v_series[i + 1] = v
    return float(0.5 * np.trapezoid((v_series - vp_sig) ** 2, t))


def _descent_terms(block: AvBlock, theta, mode: str):
    """J, the AV-summed direction and the AV sensitivities z at the shared
    gains theta, from a `PlatoonEngine.run` of the AV block resumed at its
    head's end and recording x and v.

    z comes from that record ("exogenous") or from a complex run after it,
    resumed at the same head's end, whose lane g steps gain g by i*h
    ("closed-loop"; the direction is then Im J / h of its lanes). z has
    shape (n_samples, n_av, 2). The record dies with this call, before the
    next iteration's run. Errors number vehicles in the platoon.
    """
    # 1-element arrays, not floats: NumPy multiplies them faster
    gains = np.reshape(theta, (2, 1))
    raw, engine = block.run(*gains, block.head, ("x", "v"))
    t, v = raw["t"], raw["v"]
    j_val = _objective(t, v, block.av)
    if mode == "closed-loop":
        # lane g holds gain g + i*h; each gain is shaped (lanes, 1)
        lanes = (gains + 1j * _H * np.eye(2))[..., None]
        v_c = block.run(*lanes, block.head, ("v",))[0]["v"]
        z_series = v_c[..., list(block.av)].imag.swapaxes(1, 2) / _H
        return j_val, _objective(t, v_c, block.av).imag / _H, z_series
    z_series = _sensitivities(block, engine, raw)
    lam = np.stack(
        [_direction(t, v, z_series[:, row], i) for row, i in enumerate(block.av)]
    ).sum(axis=0)
    return j_val, lam, z_series


def optimize(
    scenario: Scenario, cfg: OptimizerConfig
) -> tuple[ControllerParams, OptimizationTrace]:
    """Projected descent on the (beta, gamma) pair shared by the AVs.

    Every step that the gains cannot change is integrated once per call.
    One `av_block` call builds the AV block up to the last AV (the prefix's
    stage speeds and the gain-free head). Each iteration simulates the AV
    block with the current gains from the end of its head (recording only `x` and `v`),
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
        block = av_block(scenario, *np.reshape(theta, (2, 1)), last)[0]
        for kappa in range(1, cfg.n_max + 1):
            j_val, lam, _ = _descent_terms(block, theta, cfg.sensitivity)
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


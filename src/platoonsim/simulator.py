"""Platoon simulation: a kinematic leader plus car-following followers.

The leader executes a prescribed piecewise-linear speed profile; each
follower integrates its car-following law (human drivers) or its law plus an
additive control input (automated vehicles). Integration is fixed-step RK4
by default, with explicit Euler available for oracle tests.

The stepping core is batch-aware: parameter studies (controller-gain grids,
penetration sweeps) stack along a leading batch axis and integrate together,
which keeps independent runs independent while vectorizing the work.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .controller import ControllerParams, get_kernel
from .dynamics import (
    IdmParams,
    ModelKind,
    OvrvParams,
    equilibrium_spacing,
    idm_accel_arrays,
    ovrv_accel_arrays,
)
from .errors import DomainError, NumericalBlowupError

__all__ = [
    "LeadProfile",
    "ControllerConfig",
    "Scenario",
    "PlatoonState",
    "Trajectory",
    "SafetyViolation",
    "lead_speed",
    "place_avs",
    "av_mask_for",
    "step",
    "simulate",
    "check_safety",
    "write_trajectory_csv",
    "PlatoonEngine",
]

logger = logging.getLogger(__name__)

CONTROLLER_KINDS = ("none", "ts-ops", "ts-trc")
INTEGRATORS = ("rk4", "euler")


@dataclass(frozen=True)
class LeadProfile:
    """Piecewise-linear speed schedule for the lead vehicle.

    Knot times must be strictly increasing and start at t=0; the speed is
    held constant after the last knot.
    """

    times: tuple[float, ...]
    speeds: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.speeds) or not self.times:
            raise DomainError("profile needs matching, non-empty times and speeds")
        if self.times[0] != 0.0:
            raise DomainError(f"first knot must be at t=0, got {self.times[0]}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise DomainError("knot times must be strictly increasing")
        if min(self.speeds) < 0:
            raise DomainError("profile speeds must be non-negative")

    def speed(self, t):
        return np.interp(t, self.times, self.speeds)

    def slope(self, t):
        """Acceleration of the profile (piecewise constant, 0 past the end)."""
        t_arr = np.asarray(t, dtype=float)
        times = np.asarray(self.times)
        speeds = np.asarray(self.speeds)
        seg = np.clip(np.searchsorted(times, t_arr, side="right") - 1, 0, None)
        slopes = np.zeros(len(times))
        if len(times) > 1:
            slopes[:-1] = np.diff(speeds) / np.diff(times)
        out = slopes[np.minimum(seg, len(times) - 1)]
        return out if out.shape else float(out)


def lead_speed(t: float, profile: LeadProfile, t_f: float | None = None) -> float:
    """Leader speed at time t, with linear interpolation between knots."""
    if not math.isfinite(t) or t < 0:
        raise DomainError(f"time must be finite and non-negative, got {t}")
    if t_f is not None and t > t_f:
        raise DomainError(f"time {t} outside simulation horizon [0, {t_f}]")
    return float(profile.speed(t))


def place_avs(n: int, mpr: float) -> tuple[int, ...]:
    """Evenly spread follower indices (1-based) for the automated vehicles.

    The count is round(mpr * n); positions are floor(k*(n+1)/(m+1)) for
    k = 1..m, which puts a single AV in the middle of the platoon and fills
    every slot at full penetration.
    """
    if n < 1:
        raise DomainError(f"need at least one follower, got {n}")
    if not 0.0 <= mpr <= 1.0:
        raise DomainError(f"mpr must be in [0, 1], got {mpr}")
    m = int(round(mpr * n))
    return tuple(int(k * (n + 1) // (m + 1)) for k in range(1, m + 1))


def av_mask_for(n: int, mprs) -> np.ndarray:
    """Boolean AV mask over the n followers for one MPR or a sequence of them.

    A scalar gives shape (n,); a sequence gives one row per MPR, ready to
    integrate as a batch.
    """
    rates = np.asarray(mprs, dtype=float)
    mask = np.zeros(rates.shape + (n,), dtype=bool)
    for idx, mpr in np.ndenumerate(rates):
        for i in place_avs(n, float(mpr)):
            mask[idx + (i - 1,)] = True
    return mask


@dataclass(frozen=True)
class ControllerConfig:
    """Controller selection for the AVs in a scenario.

    kind "ts-ops" is the tunable additive sigmoid controller, "ts-trc" the
    baseline that needs the equilibrium speed, "none" disables control.
    envelope_s0 overrides the initial spacing used for the safety bound on
    beta (defaults to the AV's actual initial spacing).
    """

    kind: str = "none"
    beta: float = 0.0
    gamma: float = 1.0
    kernel: str = "arctan"
    phi1: float = 1.0
    phi2: float = 0.1
    phi3: float = 0.01
    v_star: float | None = None
    envelope_s0: float | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise DomainError(
                f"unknown controller kind {self.kind!r}; known: {CONTROLLER_KINDS}"
            )
        if self.beta < 0 or self.gamma < 0:
            raise DomainError("beta and gamma must be non-negative")
        if min(self.phi1, self.phi2, self.phi3) < 0:
            raise DomainError("phi gains must be non-negative")
        get_kernel(self.kernel)

    @property
    def params(self) -> ControllerParams:
        return ControllerParams(self.beta, self.gamma)


@dataclass(frozen=True)
class Scenario:
    """Complete description of one platoon run."""

    n_followers: int = 10
    mpr: float = 0.0
    hv_model: IdmParams = IdmParams(0.6, 2.5, 35.0, 2.0, 1.5, 4.0, 5.0)
    av_model: OvrvParams = OvrvParams(0.02, 0.13, 21.51, 1.71, 5.0)
    controller: ControllerConfig = ControllerConfig()
    lead: LeadProfile = LeadProfile(
        (0.0, 100.0, 120.0, 140.0, 160.0), (21.0, 21.0, 18.0, 18.0, 21.0)
    )
    t_f: float = 500.0
    dt: float = 0.1
    metric_window: tuple[float, float] = (100.0, 250.0)
    min_safe_spacing: float = 2.0
    integrator: str = "rk4"
    init_spacing: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_followers < 1:
            raise DomainError("need at least one follower")
        if not 0.0 <= self.mpr <= 1.0:
            raise DomainError(f"mpr must be in [0, 1], got {self.mpr}")
        if self.dt <= 0 or self.t_f <= 0:
            raise DomainError("dt and t_f must be positive")
        t1, t2 = self.metric_window
        if not (0.0 <= t1 < t2 <= self.t_f):
            raise DomainError(
                f"metric window {self.metric_window} must satisfy 0 <= t1 < t2 <= t_f"
            )
        if self.min_safe_spacing <= 0:
            raise DomainError("min_safe_spacing must be positive")
        if self.integrator not in INTEGRATORS:
            raise DomainError(
                f"unknown integrator {self.integrator!r}; known: {INTEGRATORS}"
            )
        if self.init_spacing is not None and len(self.init_spacing) != self.n_followers:
            raise DomainError("init_spacing must list one spacing per follower")

    @property
    def av_indices(self) -> tuple[int, ...]:
        return place_avs(self.n_followers, self.mpr)

    @property
    def kinds(self) -> tuple[str, ...]:
        avs = set(self.av_indices)
        return ("lead",) + tuple(
            "av" if i in avs else "hv" for i in range(1, self.n_followers + 1)
        )

    @property
    def v_star(self) -> float:
        """Reference speed for metrics and the baseline controller."""
        if self.controller.v_star is not None:
            return self.controller.v_star
        return self.speeds_initial

    @property
    def speeds_initial(self) -> float:
        return float(self.lead.speeds[0])

    def follower_model(self, i: int) -> ModelKind:
        return self.av_model if i in self.av_indices else self.hv_model

    def vehicle_lengths(self) -> np.ndarray:
        out = np.empty(self.n_followers + 1)
        out[0] = self.hv_model.length
        avs = set(self.av_indices)
        for i in range(1, self.n_followers + 1):
            out[i] = self.av_model.length if i in avs else self.hv_model.length
        return out

    def initial_spacings(self) -> np.ndarray:
        if self.init_spacing is not None:
            return np.asarray(self.init_spacing, dtype=float)
        v = self.speeds_initial
        return np.array(
            [
                equilibrium_spacing(self.follower_model(i), v)
                for i in range(1, self.n_followers + 1)
            ]
        )

    def initial_state(self) -> "PlatoonState":
        lengths = self.vehicle_lengths()
        spacing = self.initial_spacings()
        x = np.zeros(self.n_followers + 1)
        x[1:] = -np.cumsum(lengths[:-1] + spacing)
        v = np.full(self.n_followers + 1, self.speeds_initial)
        return PlatoonState(x=x, v=v, kinds=self.kinds, lengths=tuple(lengths))

    def envelope_s0_effective(self) -> float:
        """Initial AV spacing used for the safety bound on beta.

        An explicit controller.envelope_s0 wins; otherwise the smallest
        actual initial spacing among the AVs.
        """
        if self.controller.envelope_s0 is not None:
            return self.controller.envelope_s0
        avs = self.av_indices
        if not avs:
            raise DomainError("scenario has no AV, so no control envelope exists")
        spacing = self.initial_spacings()
        return float(min(spacing[i - 1] for i in avs))


@dataclass(frozen=True)
class PlatoonState:
    """Positions and speeds of the whole platoon (leader first)."""

    x: np.ndarray
    v: np.ndarray
    kinds: tuple[str, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        gaps = self.x[:-1] - self.x[1:] - np.asarray(self.lengths[:-1])
        if (gaps <= 0).any():
            i = int(np.argmax(gaps <= 0)) + 1
            raise DomainError(
                f"vehicle {i} overlaps its predecessor (gap {gaps[i - 1]:.3f} m)"
            )

    def spacings(self) -> np.ndarray:
        return self.x[:-1] - self.x[1:] - np.asarray(self.lengths[:-1])


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed record of a platoon run.

    All arrays have shape (n_samples, n_vehicles) with the leader in column
    0; spacing and relative speed are NaN for the leader, control input is 0
    for every uncontrolled vehicle.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    a: np.ndarray
    s: np.ndarray
    dv: np.ndarray
    u: np.ndarray
    kinds: tuple[str, ...]

    @property
    def n_vehicles(self) -> int:
        return self.x.shape[1]

    @property
    def follower_indices(self) -> range:
        return range(1, self.n_vehicles)

    def window_mask(self, t1: float, t2: float) -> np.ndarray:
        if t1 < self.t[0] - 1e-9 or t2 > self.t[-1] + 1e-9:
            raise DomainError(
                f"window ({t1}, {t2}) outside trajectory span "
                f"({self.t[0]}, {self.t[-1]})"
            )
        return (self.t >= t1 - 1e-9) & (self.t <= t2 + 1e-9)


@dataclass(frozen=True)
class SafetyViolation:
    vehicle: int
    time: float
    spacing: float


class PlatoonEngine:
    """Vectorized right-hand side and fixed-step integrator for one scenario.

    `beta`, `gamma` and `av_mask` may be overridden with batched arrays to
    integrate a whole family of runs at once (leading batch axis). Lanes are
    independent: each one equals its own unbatched run bit for bit.
    """

    def __init__(
        self,
        scenario: Scenario,
        beta=None,
        gamma=None,
        av_mask: np.ndarray | None = None,
        per_follower_gains: bool = False,
    ):
        self.scenario = scenario
        self.n = scenario.n_followers
        self.hv = scenario.hv_model
        self.av = scenario.av_model
        ctrl = scenario.controller
        self.kind = ctrl.kind
        self.kernel = get_kernel(ctrl.kernel)
        self.v_star = scenario.v_star
        self.phi = (ctrl.phi1, ctrl.phi2, ctrl.phi3)

        if av_mask is None:
            av_mask = av_mask_for(self.n, scenario.mpr)
        self.av_mask = np.asarray(av_mask, dtype=bool)

        def _gain(value, default):
            # batched gains get a trailing axis to broadcast over followers;
            # per-follower gains are taken as given
            value = default if value is None else value
            arr = np.asarray(value, dtype=float)
            if not arr.ndim:
                return float(arr)
            return arr if per_follower_gains else arr[..., None]

        self.beta = _gain(beta, ctrl.beta)
        self.gamma = _gain(gamma, ctrl.gamma)
        self.batch_shape = np.broadcast_shapes(
            self.av_mask.shape, np.shape(self.beta), np.shape(self.gamma)
        )[:-1]

        # leader + per-follower lengths; follower lengths follow the mask
        lengths = np.empty(self.av_mask.shape[:-1] + (self.n + 1,))
        lengths[..., 0] = self.hv.length
        lengths[..., 1:] = np.where(self.av_mask, self.av.length, self.hv.length)
        self.lengths = lengths
        self.front_lengths = lengths[..., :-1]
        # clamps of a negative speed to 0, per lane (0-d when unbatched)
        self.lane_floor_hits = np.zeros(self.batch_shape, dtype=np.int64)

    @property
    def floor_hits(self) -> int:
        """Speed-floor clamps of the last run, summed over all lanes."""
        return int(self.lane_floor_hits.sum())

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        sc = self.scenario
        v0 = sc.speeds_initial
        if sc.init_spacing is not None:
            spacing = np.broadcast_to(
                np.asarray(sc.init_spacing, dtype=float), self.av_mask.shape
            )
        else:
            s_hv = equilibrium_spacing(self.hv, v0)
            s_av = equilibrium_spacing(self.av, v0)
            spacing = np.where(self.av_mask, s_av, s_hv)
        x = np.zeros(self.batch_shape + (self.n + 1,))
        x[..., 1:] = -np.cumsum(self.front_lengths + spacing, axis=-1)
        v = np.full(self.batch_shape + (self.n,), v0)
        return x, v

    def control_input(self, s, dv, v_prev):
        if self.kind == "ts-ops":
            u = self.beta * self.kernel.fn(self.gamma * s * dv)
        elif self.kind == "ts-trc":
            p1, p2, p3 = self.phi
            u = p1 * (dv + p2 * np.arctan(p3 * s * (self.v_star - v_prev)))
        else:
            return np.zeros(np.broadcast_shapes(s.shape, self.av_mask.shape))
        return np.where(self.av_mask, u, 0.0)

    def rhs(self, t, x, v):
        """Derivatives plus the instantaneous (s, dv, u, accel) diagnostics."""
        v_lead = float(self.scenario.lead.speed(t))
        v_all = np.concatenate(
            [np.broadcast_to(v_lead, v.shape[:-1] + (1,)), v], axis=-1
        )
        s = x[..., :-1] - x[..., 1:] - self.front_lengths
        dv = v_all[..., :-1] - v_all[..., 1:]
        u = self.control_input(s, dv, v_all[..., :-1])
        acc_hv = idm_accel_arrays(s, dv, v, self.hv)
        acc_av = ovrv_accel_arrays(s, dv, v, self.av) + u
        acc = np.where(self.av_mask, acc_av, acc_hv)
        return v_all, acc, s, dv, u

    def _check_finite(self, v, t):
        finite = np.isfinite(v)
        if not finite.all():
            rows = finite.reshape(-1, self.n)
            lane = int(np.argmin(rows.all(axis=-1)))
            vehicle = int(np.argmin(rows[lane])) + 1
            raise NumericalBlowupError(vehicle, t, lane if v.ndim > 1 else None)

    def advance(self, t, x, v, dt, integrator, k1=None):
        """One integration step from t; k1 may reuse an rhs evaluation at t."""
        if k1 is None:
            k1 = self.rhs(t, x, v)
        k1x, k1v = k1[0], k1[1]
        if integrator == "euler":
            x_new = x + dt * k1x
            v_new = v + dt * k1v
        else:
            k2x, k2v = self.rhs(t + dt / 2, x + dt / 2 * k1x, v + dt / 2 * k1v)[:2]
            k3x, k3v = self.rhs(t + dt / 2, x + dt / 2 * k2x, v + dt / 2 * k2v)[:2]
            k4x, k4v = self.rhs(t + dt, x + dt * k3x, v + dt * k3v)[:2]
            x_new = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
            v_new = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        below = v_new < 0
        if below.any():
            self.lane_floor_hits += below.sum(axis=-1)
            v_new = np.maximum(v_new, 0.0)
        return x_new, v_new

    def run(
        self,
        record: Sequence[str] = ("x", "v", "a", "s", "dv", "u"),
        window: tuple[float, float] | None = None,
    ) -> dict:
        """Integrate the scenario horizon, recording the requested fields.

        Recorded arrays have a leading time axis; `x` and `v` include the
        leader column, `a`, `s`, `dv`, `u` cover the followers only. With
        `window=(t1, t2)` only the samples inside [t1, t2] are kept (the
        same samples a metric window selects); the whole horizon is still
        integrated, so blow-ups and floor hits after t2 count.

        Unbatched runs log their speed-floor hits; batched callers report
        `lane_floor_hits` per lane themselves.
        """
        sc = self.scenario
        dt = sc.dt
        steps = int(round(sc.t_f / dt))
        t_grid = np.arange(steps + 1) * dt
        lo, hi = 0, steps + 1
        if window is not None:
            lo = int(np.searchsorted(t_grid, window[0] - 1e-9, side="left"))
            hi = int(np.searchsorted(t_grid, window[1] + 1e-9, side="right"))
        x, v = self.initial_arrays()
        self.lane_floor_hits = np.zeros(self.batch_shape, dtype=np.int64)

        out = {"t": t_grid[lo:hi]}
        leader_tail = self.batch_shape + (self.n + 1,)
        follower_tail = self.batch_shape + (self.n,)
        for name in record:
            tail = leader_tail if name in ("x", "v") else follower_tail
            out[name] = np.empty((hi - lo,) + tail)

        def record_sample(k, x_k, stage):
            if not lo <= k < hi:
                return
            v_all, acc, s, dv, u = stage
            for name, arr in (
                ("x", x_k), ("v", v_all), ("a", acc), ("s", s), ("dv", dv), ("u", u)
            ):
                if name in out:
                    out[name][k - lo] = arr

        t = 0.0
        for k in range(steps):
            stage = self.rhs(t, x, v)
            record_sample(k, x, stage)
            x, v = self.advance(t, x, v, dt, sc.integrator, k1=stage)
            t = t_grid[k + 1]
            self._check_finite(v, t)
        if hi > steps:
            record_sample(steps, x, self.rhs(t, x, v))

        if self.floor_hits and not self.batch_shape:
            logger.warning(
                "speed floor at 0 m/s engaged %d times during the run",
                self.floor_hits,
            )
        return out


def step(state: PlatoonState, t: float, scenario: Scenario) -> PlatoonState:
    """Advance one integration step of scenario.dt from the given state."""
    engine = PlatoonEngine(scenario)
    x, v = state.x.copy(), state.v[1:].copy()
    x_new, v_new = engine.advance(t, x, v, scenario.dt, scenario.integrator)
    v_full = np.concatenate([[float(scenario.lead.speed(t + scenario.dt))], v_new])
    return PlatoonState(x=x_new, v=v_full, kinds=state.kinds, lengths=state.lengths)


def assemble_trajectory(scenario: Scenario, raw: dict) -> Trajectory:
    """Build a Trajectory from raw engine output of a single (unbatched) run."""
    t = raw["t"]
    n_samples = len(t)
    n_veh = scenario.n_followers + 1

    a = np.empty((n_samples, n_veh))
    a[:, 0] = scenario.lead.slope(t)
    a[:, 1:] = raw["a"]
    s = np.full((n_samples, n_veh), np.nan)
    s[:, 1:] = raw["s"]
    dv = np.full((n_samples, n_veh), np.nan)
    dv[:, 1:] = raw["dv"]
    u = np.zeros((n_samples, n_veh))
    u[:, 1:] = raw["u"]

    return Trajectory(
        t=t,
        x=raw["x"],
        v=raw["v"],
        a=a,
        s=s,
        dv=dv,
        u=u,
        kinds=scenario.kinds,
    )


def simulate(scenario: Scenario) -> Trajectory:
    """Run the scenario from equilibrium initialization to its horizon."""
    return assemble_trajectory(scenario, PlatoonEngine(scenario).run())


def check_safety(traj: Trajectory, min_safe: float) -> list[SafetyViolation]:
    """Every (vehicle, time) sample whose spacing is below the safe minimum."""
    out = []
    bad = traj.s[:, 1:] < min_safe
    for k, i in zip(*np.nonzero(bad)):
        out.append(
            SafetyViolation(
                vehicle=int(i) + 1,
                time=float(traj.t[k]),
                spacing=float(traj.s[k, i + 1]),
            )
        )
    return out


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per (time, vehicle) with fixed 6-decimal formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "vehicle", "kind", "x", "v", "a", "s", "dv", "u"])
        for k in range(len(traj.t)):
            for i in range(traj.n_vehicles):
                writer.writerow(
                    [f"{traj.t[k]:.6f}", i, traj.kinds[i]]
                    + [
                        f"{arr[k, i]:.6f}"
                        for arr in (traj.x, traj.v, traj.a, traj.s, traj.dv, traj.u)
                    ]
                )

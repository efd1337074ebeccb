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

import itertools
import logging
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np
from numpy import add, multiply, subtract

from .controller import beta_upper_bound, get_kernel
from .dynamics import (
    IdmParams,
    OvrvParams,
    equilibrium_spacing,
    idm_accel_arrays,
    operands,
    ovrv_accel_arrays,
)
from .errors import DomainError, NumericalBlowupError
from .stepping import rk4_slots, rk4_step, step_coefficients

__all__ = [
    "LeadProfile",
    "ControllerConfig",
    "Scenario",
    "Trajectory",
    "SafetyViolation",
    "place_avs",
    "av_mask_for",
    "start_spacings",
    "window_slice",
    "simulate",
    "check_safety",
    "write_trajectory_csv",
    "PlatoonEngine",
]

logger = logging.getLogger(__name__)

CONTROLLER_KINDS = ("none", "ts-ops", "ts-trc")
INTEGRATORS = ("rk4", "euler")
# values a folded run's block buffer holds (see `PlatoonEngine.run`)
_FOLD_VALUES = 1 << 16
# rows per block of a rebuild (`PlatoonEngine.stage_blocks`, `run`'s record
# of s, dv and u); bounds its arrays. Blocks change no bits: the rebuilt
# values are elementwise per row, and their callers visit the blocks in order.
_STAGE_BLOCK = 128
_NO_INPUT = np.array(0.0)  # the input of an engine without a controller
_T_TOL = 1e-9  # s: how near a time must lie to count as on the grid or in a window


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
        # NaN passes both tests above; inf would reach the engine
        if not all(map(math.isfinite, (*self.times, *self.speeds))):
            raise DomainError("profile knots must be finite")
        if min(self.speeds) < 0:
            raise DomainError("profile speeds must be non-negative")

    def speed(self, t):
        return np.interp(t, self.times, self.speeds)

    def stage_speeds(self, dt: float, steps: int) -> tuple[np.ndarray, ...]:
        """The leader's four-stage table of a fixed-step run with t_k = k*dt.

        Returns the speeds at RK4 stage 1, t_k (k = 0..steps), and at
        stages 2, 3 and 4, t_k + dt/2 twice (the same array) and t_k + dt
        (k < steps). The stage times are formed as a stepper forms them from
        t_k (t_k + dt, not t_{k+1}), so each entry equals `speed` at that
        time bit for bit.
        """
        t_grid = np.arange(steps + 1) * dt
        t_k = t_grid[:-1]
        mid = self.speed(t_k + dt / 2)
        return self.speed(t_grid), mid, mid, self.speed(t_k + dt)

    def slope(self, t):
        """Acceleration of the profile at times t >= 0 (piecewise constant,
        0 past the last knot)."""
        slopes = np.append(np.diff(self.speeds) / np.diff(self.times), 0.0)
        return slopes[np.searchsorted(self.times, t, side="right") - 1]


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
        if not all(math.isfinite(g) and g >= 0 for g in (self.beta, self.gamma)):
            raise DomainError("beta and gamma must be non-negative and finite")
        if not all(math.isfinite(p) and p >= 0 for p in (self.phi1, self.phi2, self.phi3)):
            raise DomainError("phi gains must be non-negative and finite")
        for name in ("v_star", "envelope_s0"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        get_kernel(self.kernel)


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
        if not all(math.isfinite(x) and x > 0 for x in (self.dt, self.t_f)):
            raise DomainError("dt and t_f must be positive and finite")
        if abs(self.steps * self.dt - self.t_f) > _T_TOL:
            raise DomainError(f"t_f {self.t_f} is not a whole number of dt {self.dt} steps")
        t1, t2 = self.metric_window
        if not (0.0 <= t1 < t2 <= self.t_f):
            raise DomainError(
                f"metric window {self.metric_window} must satisfy 0 <= t1 < t2 <= t_f"
            )
        if not (math.isfinite(self.min_safe_spacing) and self.min_safe_spacing > 0):
            raise DomainError("min_safe_spacing must be positive and finite")
        if self.integrator not in INTEGRATORS:
            raise DomainError(
                f"unknown integrator {self.integrator!r}; known: {INTEGRATORS}"
            )
        # the window must hold on the sampled grid too, so a bad window fails
        # here rather than after any integration; its metrics need 2 samples
        keep = window_slice(np.arange(self.steps + 1) * self.dt, self.metric_window)
        if keep.stop - keep.start < 2:
            raise DomainError(
                f"metric window {self.metric_window} holds fewer than 2 samples at dt {self.dt}"
            )
        if self.init_spacing is not None:
            if len(self.init_spacing) != self.n_followers:
                raise DomainError("init_spacing must list one spacing per follower")
            if not all(math.isfinite(s) and s > 0 for s in self.init_spacing):
                raise DomainError(
                    f"init_spacing must be positive and finite, got {self.init_spacing}"
                )

    @property
    def steps(self) -> int:
        """Fixed steps of a run over the horizon: t_k = k*dt, k = 0..steps."""
        return int(round(self.t_f / self.dt))

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

    def envelope_s0_effective(self) -> float:
        """Initial AV spacing used for the safety bound on beta.

        An explicit controller.envelope_s0 wins; otherwise the smallest
        actual initial spacing among the AVs.
        """
        if self.controller.envelope_s0 is not None:
            return self.controller.envelope_s0
        mask = av_mask_for(self.n_followers, self.mpr)
        if not mask.any():
            raise DomainError("scenario has no AV, so no control envelope exists")
        return float(start_spacings(self, mask)[mask].min())

    def beta_bound(self) -> float:
        """The safety ceiling on beta (`beta_upper_bound`) of the envelope and kernel."""
        sup = get_kernel(self.controller.kernel).sup
        return beta_upper_bound(self.envelope_s0_effective(), self.min_safe_spacing, self.t_f, sup)


def start_spacings(scenario: Scenario, av_mask: np.ndarray) -> np.ndarray:
    """Initial spacing of followers 1..`av_mask.shape[-1]`, shaped like the mask.

    `scenario.init_spacing` when given, else each follower's equilibrium
    spacing at the initial lead speed under its own model.
    """
    if scenario.init_spacing is not None:
        return np.broadcast_to(scenario.init_spacing[: av_mask.shape[-1]], av_mask.shape)
    v0 = scenario.speeds_initial
    s_hv = equilibrium_spacing(scenario.hv_model, v0)
    s_av = equilibrium_spacing(scenario.av_model, v0)
    return np.where(av_mask, s_av, s_hv)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed record of a platoon run, as `PlatoonEngine.run` records it.

    `x`, `v` and `a` have shape (n_samples, n_vehicles), the leader in
    column 0; `s`, `dv` and `u` cover the followers only, (n_samples,
    n_followers). `u` is 0 for every uncontrolled follower.
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


def window_slice(t: np.ndarray, window: tuple[float, float]) -> slice:
    """The samples of the sorted times `t` that a metric window selects.

    This is the one window rule: a sample counts when it lies within
    `_T_TOL` (1e-9 s) of [t1, t2]. A window that leaves the sampled span is
    a DomainError.
    """
    t1, t2 = window
    if t1 < t[0] - _T_TOL or t2 > t[-1] + _T_TOL:
        raise DomainError(
            f"window ({t1}, {t2}) outside trajectory span ({t[0]}, {t[-1]})"
        )
    lo = np.searchsorted(t, t1 - _T_TOL, side="left")
    hi = np.searchsorted(t, t2 + _T_TOL, side="right")
    return slice(int(lo), int(hi))


def _av_index(av_mask: np.ndarray, batch_shape: tuple[int, ...]):
    """Index of the AV entries of `(n, *batch_shape)` arrays, or None.

    A mask that every lane shares gives a basic slice of the vehicle axis
    when its AVs are evenly spaced, so the AV rows are a view, and their
    positions otherwise; per-lane masks give `np.nonzero` of the mask
    broadcast over the lanes, vehicle axis first, one index array per axis.
    """
    n = av_mask.shape[-1]
    rows = av_mask.reshape(-1, n)
    if not rows.any():
        return None
    if not (rows == rows[:1]).all():
        return np.nonzero(np.moveaxis(np.broadcast_to(av_mask, batch_shape + (n,)), -1, 0))
    pos = np.flatnonzero(rows[0])
    step = int(pos[1] - pos[0]) if pos.size > 1 else 1
    if (np.diff(pos) == step).all():
        pos = slice(int(pos[0]), int(pos[-1]) + 1, step)
    return (pos,)


@dataclass(frozen=True)
class SafetyViolation:
    vehicle: int
    time: float
    spacing: float


class PlatoonEngine:
    """Vectorized right-hand side and fixed-step integrator for one scenario.

    `beta`, `gamma` and `av_mask` may be overridden with arrays that
    broadcast against the `(..., n)` follower axis, to give every follower
    its own gains or to integrate a whole family of runs at once (leading
    batch axes; one gain per lane is shaped `(lanes, 1)`). The engine runs
    the scenario's first n = `av_mask.shape[-1]` followers. Lanes are
    independent: each one equals its own unbatched run bit for bit. The AV
    law and the control input are evaluated at the AV entries (`_av_index`).

    The vehicle axis leads inside the engine: a lane's state
    `[x (n+1) | v (n)]` lies along axis 0 of a `(2n+1, *batch)` array and
    `rhs` takes `x` as `(n+1, *batch)`, `v` as `(n, *batch)`, so a vehicle's
    row over all lanes is contiguous. Three seams keep the callers' layout,
    vehicles last: `__init__` moves the follower axis of the gains, the mask
    and `front_lengths` to the front once; `run` takes `initial` and returns
    or folds C-contiguous `(time, *batch, vehicle)` records; `stage_blocks`
    copies each block of its run's record into a step-batched engine's layout.

    The engine knows nothing of gain sensitivities, but complex gains make
    the state, `rhs`'s derivative and the record complex, so a gain stepped
    by i*h gives each speed's derivative as Im v / h. `step` evaluates the
    later stages of one step: `advance` calls it in the run loop, and
    `stage_blocks` on a recorded run's states, with the step index as a
    batch axis, to rebuild the stage values that the AV block's head and
    the optimizer's sensitivities need. An array lane's stages write into
    buffers and through views that `run` makes once per run (`_run_work`),
    and `stage_blocks` once per stage and block (`work_set`). Every scalar
    operand of a step (model parameters, controller constants, step
    coefficients) is made here: a 0-d array of the state's dtype, which
    NumPy applies faster than a float, but a Python float in a lane that
    `run` steps as a tuple `(x_lead, x, v)` (`_floats`: one unbatched real
    lane whose one follower is an AV), through the same `advance` and
    `step`, with `_rates` as its derivative, `rk4_slots` as its RK4 step and
    the Euler line and the floor clamp slot by slot.
    """

    def __init__(
        self,
        scenario: Scenario,
        beta=None,
        gamma=None,
        av_mask: np.ndarray | None = None,
    ):
        self.scenario = scenario
        ctrl = scenario.controller
        self.kind = ctrl.kind
        self.kernel = get_kernel(ctrl.kernel)

        if av_mask is None:
            av_mask = av_mask_for(scenario.n_followers, scenario.mpr)
        self.av_mask = np.asarray(av_mask, dtype=bool)
        self.n = n = self.av_mask.shape[-1]
        if not 1 <= n <= scenario.n_followers:
            raise DomainError(f"av_mask covers {n} of the platoon's {scenario.n_followers} followers")

        def _gain(value, default):
            # arrays broadcast as given against the (..., n) follower axis
            arr = np.asarray(default if value is None else value)
            return arr.astype(np.result_type(arr, float), copy=False)  # complex stays

        self.beta = _gain(beta, ctrl.beta)
        self.gamma = _gain(gamma, ctrl.gamma)
        self.dtype = np.result_type(self.beta, self.gamma)  # of the state and record
        self.batch_shape = np.broadcast_shapes(
            self.av_mask.shape, np.shape(self.beta), np.shape(self.gamma)
        )[:-1]
        ndim = 1 + len(self.batch_shape)

        def vehicle_first(arr):
            # `arr`, vehicles last, padded to the batch's axes, with its
            # vehicle axis first, as a contiguous array
            arr = np.reshape(arr, (1,) * (ndim - np.ndim(arr)) + np.shape(arr))
            return np.ascontiguousarray(np.moveaxis(arr, -1, 0))

        # the AV entries of the vehicle axis; the AV law and its gains are
        # evaluated there only (None: no lane has an AV)
        self._a = _av_index(self.av_mask, self.batch_shape)
        # whether every follower of every lane is an AV; then the IDM is
        # skipped, as the AV law overwrites every entry
        self._all_av = bool(self.av_mask.all())
        self._floats = not self.batch_shape and n == 1 and self._all_av and self.dtype == float
        # of the state's dtype: a complex lane's ufuncs then cast no operand
        scalar = float if self._floats else lambda value: np.array(value, self.dtype)
        models = scenario.hv_model, scenario.av_model
        self.hv, self.av = models if self._floats else (operands(m, self.dtype) for m in models)
        self.v_star = scalar(scenario.v_star)
        self.phi = tuple(map(scalar, (ctrl.phi1, ctrl.phi2, ctrl.phi3)))
        self._c = tuple(map(scalar, step_coefficients(scenario.dt)))

        def _at_av(gain):
            # the gain at the AV entries, shaped to broadcast against them
            if self._floats:
                return gain.item()
            if self._a is None or gain.ndim == 0:
                return gain
            gain = vehicle_first(gain)
            return gain if self._all_av else np.broadcast_to(gain, (n, *self.batch_shape))[self._a]

        self._beta_a = _at_av(self.beta)
        self._gamma_a = _at_av(self.gamma)

        # each follower's predecessor's length: the leader's, then the
        # followers' but the last, which follow the mask
        front = np.empty(self.av_mask.shape[:-1] + (self.n,))
        front[..., 0] = models[0].length
        front[..., 1:] = np.where(self.av_mask[..., :-1], models[1].length, models[0].length)
        self.front_lengths = vehicle_first(front)
        # clamps of a negative speed to 0, per lane (0-d when unbatched)
        self.lane_floor_hits = np.zeros(self.batch_shape, dtype=np.int64)

        # the state's rows, dx/dt = [v_lead | v] in the x rows; they index a
        # float lane's tuple too
        self._x, self._v = slice(None, n + 1), slice(n + 1, 2 * n + 1)
        self.width = 2 * n + 1

    @property
    def floor_hits(self) -> int:
        """Speed-floor clamps of the last run, summed over all lanes."""
        return int(self.lane_floor_hits.sum())

    def initial_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        spacing = start_spacings(self.scenario, self.av_mask)
        x = np.zeros(self.batch_shape + (self.n + 1,))
        x[..., 1:] = -np.cumsum(np.moveaxis(self.front_lengths, 0, -1) + spacing, axis=-1)
        v = np.full(self.batch_shape + (self.n,), self.scenario.speeds_initial)
        return x, v

    def control_input(self, s, dv, v_prev):
        """Control input `u` at the AV entries (`self._a`, or the whole
        arrays when every follower is an AV), where `s`, `dv` and `v_prev`
        are taken. Without a controller `u` is a 0-d 0.0.
        """
        if self.kind == "ts-ops":
            return self._beta_a * self.kernel.fn(self._gamma_a * s * dv)
        if self.kind == "ts-trc":
            p1, p2, p3 = self.phi
            return p1 * (dv + p2 * np.arctan(p3 * s * (self.v_star - v_prev)))
        return _NO_INPUT

    def work_set(self, x, v, like=None):
        """`rhs`'s buffers at the state rows x and v: its derivative `f`, the
        `rows` s, dv and IDM scratch (`like`'s, when given), and views made once
        of `x[:-1]`, `x[1:]` and f's rows; `av`, the AV rows, `_run_work` adds."""
        n = self.n
        w = SimpleNamespace(x=x, v=v, x_front=x[:-1], x_back=x[1:], av=None)
        w.f = np.empty((self.width, *v.shape[1:]), self.dtype)
        w.v_next, w.v_prev, w.acc = w.f[1 : n + 1], w.f[:n], w.f[n + 1 :]
        w.rows = like.rows if like else tuple(np.empty(v.shape, self.dtype) for _ in range(3))
        return w

    def rhs(self, v_lead, x, v, work=None):
        """Flat derivative `f` plus the instantaneous diagnostics.

        Returns `(f, s, dv, u)`, `u` at the AV entries (None without an
        AV), from `x` `(n+1, *batch)`, `v` `(n, *batch)` and `v_lead`, the
        leader's speed at the stage time. `f` has the state's layout:
        dx/dt = [v_lead | v], then dv/dt. The HV law is written over every
        follower (if any is an HV), then the AV law plus `u` over the AV
        entries. `f`, `s` and `dv` are `work`'s (x and v's `work_set`) or new.
        """
        w = work or self.work_set(x, v)
        f, (s, dv, tmp) = w.f, w.rows
        f[0] = v_lead
        w.v_next[...] = v
        subtract(subtract(w.x_front, w.x_back, s), self.front_lengths, s)
        subtract(w.v_prev, v, dv)
        if not self._all_av:
            idm_accel_arrays(s, dv, v, self.hv, out=w.acc, tmp=tmp)
        a = self._a
        if a is None:
            return f, s, dv, None
        # only ts-trc reads the predecessor's speed
        s_a, dv_a, v_a, v_prev_a, acc_a = w.av or (
            s[a], dv[a], v[a], w.v_prev[a] if self.kind == "ts-trc" else None, None)
        u = self.control_input(s_a, dv_a, v_prev_a)
        av = add(ovrv_accel_arrays(s_a, dv_a, v_a, self.av), u, acc_a)
        if acc_a is None:
            w.acc[a] = av
        return f, s, dv, u

    def _rates(self, v_lead, y):
        """`rhs`'s derivative, by its operations, of a `_floats` lane's y."""
        v_lead, (x_lead, x, v) = float(v_lead), y
        s = x_lead - x - self.hv.length
        dv = v_lead - v
        u = self.control_input(s, dv, v_lead)
        return v_lead, v, float(ovrv_accel_arrays(s, dv, v, self.av) + u)

    def _check_finite(self, y, t):
        if self._floats and math.isfinite(y[2]):
            return
        # one reduction, no temporary: finite speeds have a finite sum (and modulus);
        # a sum that is not (a speed that is not, or an overflow) is searched
        if math.isfinite(abs(add.reduce(y[self._v], axis=None))):
            return
        finite = np.isfinite(y[self._v])
        if finite.all():
            return
        columns = finite.reshape(self.n, -1)  # one column per lane
        lane = int(np.argmin(columns.all(axis=0)))
        vehicle = int(np.argmin(columns[:, lane])) + 1
        raise NumericalBlowupError(vehicle, t, lane if finite.ndim > 1 else None)

    def step(self, y, f1, v_lead, stages=None, work=None):
        """The unclamped state one step after the flat state y.

        `f1` is `rhs`'s derivative at y; `v_lead` holds the leader's speeds
        at RK4 stages 2, 3 and 4 of the step (a row of the later stages of
        `LeadProfile.stage_speeds`' table; Euler reads none). A list
        `stages` receives `rhs`'s tuples at those stages; the run loop
        passes none, so they are freed stage by stage. With a run's `work`
        (`_run_work`) it writes into its buffers, the new state into the other.
        """
        out = work and work.y[y is work.y[0]]
        if self.scenario.integrator == "euler":
            if self._floats:
                return tuple(p + self._c[1] * a for p, a in zip(y, f1))
            return add(y, multiply(self._c[1], f1, out), out)
        if self._floats:
            return rk4_slots(y, self._c, f1, lambda i, y_i: self._rates(v_lead[i - 1], y_i))

        def rate(i, y_i):
            stage = self.rhs(v_lead[i - 1], *(work.stage if work else (y_i[self._x], y_i[self._v])))
            if stages is not None:
                stages.append(stage)
            return stage[0]

        return rk4_step(y, self._c, f1, rate, work and work.ys, out)

    def advance(self, y, f1, v_lead, work=None):
        """One step of the flat state y from its derivative f1 at the step start.

        `v_lead` and `work` are as for `step`. Finite speeds below 0 are
        clamped to 0 and counted per lane; a complex speed by its real part.
        """
        y_new = self.step(y, f1, v_lead, None, work)
        if self._floats:
            if -math.inf < y_new[2] < 0:
                self.lane_floor_hits += 1
                return y_new[0], y_new[1], 0.0
            return y_new
        # fmin skips NaN, as `v < 0` is False for it
        if np.fmin.reduce(y_new[self._v].real, axis=None) < 0:
            floored = self.floored(y_new)
            self.lane_floor_hits += floored.sum(axis=0)
            y_new[self._v][floored] = 0.0
        return y_new

    def floored(self, y_new):
        """The speeds of the unclamped states `y_new` that `advance` floors at
        0 and counts: the real parts below 0 but -inf, a blow-up as NaN is."""
        v_new = y_new[self._v].real
        return (v_new < 0) & (v_new != -np.inf)

    def _run_work(self):
        """A run's buffers, made once: two states, which its steps take in
        turn, the RK4 stage state `ys`, and `rhs`'s arguments at each, whose
        `work_set`s share their scratch rows and, under a slice index, view
        the AV rows of s, dv, v, `v_prev` and dv/dt."""
        *states, ys = (np.zeros((self.width, *self.batch_shape), self.dtype) for _ in range(3))
        first = self.work_set(states[0][self._x], states[0][self._v])
        sets = first, *(self.work_set(y[self._x], y[self._v], first) for y in (states[1], ys))
        for w in sets if self._a is not None and isinstance(self._a[0], slice) else ():
            w.av = tuple(arr[self._a] for arr in (*w.rows[:2], w.v, w.v_prev, w.acc))
        at = [(w.x, w.v, w) for w in sets]
        return SimpleNamespace(y=tuple(states), ys=ys, at=at[:2], stage=at[2])

    def stage_blocks(self, lead, raw, start: int = 0):
        """Rebuild this engine's run's steps from `start` in blocks of `_STAGE_BLOCK`.

        `raw` is the run's record as `run` returns it (`x` and `v` with the
        leader column), `lead` the leader's four-stage table. An engine of
        this one's gains and AV mask, which its lanes must share (a
        DomainError otherwise), takes the step index as its first batch
        axis, any lanes after it, behind the vehicle axis. Yields each
        block's first and end step, the list of `rhs`'s tuples at its steps'
        RK4 stages (stage 1 alone under Euler) and each step's floor mask
        (`floored`), all in that engine's layout, from one copy of the
        block's states in it.
        """
        mask = self.av_mask.reshape(-1, self.n)
        if not (mask == mask[:1]).all():
            raise DomainError(f"stage_blocks needs one av_mask for all lanes, got {mask.tolist()}")
        engine = PlatoonEngine(self.scenario, self.beta[None], self.gamma[None], mask[:1])
        x, v = raw["x"], raw["v"][..., 1:]
        end = len(x) - 1
        # the leader's speeds, one per step, against any lane axis
        shape = (-1,) + (1,) * (x.ndim - 2)
        for k0 in range(start, end, _STAGE_BLOCK):
            k1 = min(k0 + _STAGE_BLOCK, end)
            y = np.concatenate([np.moveaxis(arr[k0:k1], -1, 0) for arr in (x, v)])
            stages = [engine.rhs(lead[0][k0:k1].reshape(shape), y[self._x], y[self._v])]
            lead_later = [s[k0:k1].reshape(shape) for s in lead[1:]]
            yield k0, k1, stages, engine.floored(engine.step(y, stages[0][0], lead_later, stages))

    def run(
        self,
        record: Sequence[str] = ("x", "v", "a", "s", "dv", "u"),
        fold: Callable[[np.ndarray, dict], None] | None = None,
        lead: Sequence[np.ndarray] | None = None,
        initial: tuple[np.ndarray, np.ndarray] | None = None,
        start: int = 0,
        end: int | None = None,
    ) -> dict | None:
        """Integrate steps `start`..`end`, recording the requested fields.

        Recorded arrays have a leading time axis; `x` and `v` include the
        leader column, `a`, `s`, `dv`, `u` cover the followers only. Without
        `fold` every step to `end` (by default `lead`'s last, or the
        horizon's) is recorded, clamped and checked as in a run to the
        horizon. The loop records `x`, `v` and `a`; `s`, `dv` and `u` are
        rebuilt from the record of `x` and `v`, whose leader column is
        `rhs`'s `v_lead`, after it or per fold block, by `rhs`'s own
        expressions, so with its bits.

        With `fold`, the run covers the scenario's metric window, which
        must end by step `end`: only the samples `window_slice` selects are
        kept, and the integration ends at the window's last sample, so
        blow-ups and floor hits after t2 are not seen. The samples go to a
        block buffer of at most `_FOLD_VALUES` values (at least one
        sample), and `fold(t_block, fields)` is called each time it fills
        and once more with what is left at the end, possibly nothing;
        `fields` maps each recorded name to a view of the buffer, valid
        only during the call. Nothing is returned then.

        The leader follows `lead`, its four-stage speed table (stage 1 at
        every sample, then stages 2, 3 and 4 of every step; an Euler run
        needs stage 1 only), by default the scenario's profile
        (`LeadProfile.stage_speeds`). Tables stacked along a last lane axis
        give each lane its own leader, and each lane then equals its own
        unbatched run behind that profile bit for bit. A table rebuilt from
        a recorded vehicle makes that vehicle the leader, so a run of the
        followers behind it, started from `initial` (the `x` and `v`
        columns of the whole platoon's `initial_arrays`; by default this
        engine's own), equals those columns of the whole platoon's run bit
        for bit.

        `start` resumes a run from a state at step `start`: `initial` is
        then the state at t_start that a run from step 0 reached (the `x`
        and `v` record rows at `start`, `v` without the leader column). The
        loop steps from there, so the record, whose `t` and rows begin at
        sample `start` (a fold sees the window's samples from there), and
        every error equal those of a run from step 0. Clamps are counted
        from `start`.

        Unbatched runs log their speed-floor hits; batched callers report
        `lane_floor_hits` per lane themselves.
        """
        sc = self.scenario
        if end is None:
            end = sc.steps if lead is None else len(lead[0]) - 1
        if not start <= end <= sc.steps:
            raise DomainError(f"run end {end} is outside steps {start}..{sc.steps}")
        t_grid = np.arange(sc.steps + 1) * sc.dt
        if lead is None:
            lead = sc.lead.stage_speeds(sc.dt, end)
        lead_t = lead[0]
        # the leader's later stage speeds, one row per step, made as the
        # loop reaches them
        lead_later = (
            zip(*(s[start:] for s in lead[1:])) if len(lead) > 1 else itertools.repeat(())
        )
        work = self._run_work()
        y = work.y[0]
        rec = np.moveaxis(y, 0, -1)  # a view of y in the record's layout
        rec[..., self._x], rec[..., self._v] = self.initial_arrays() if initial is None else initial
        self.lane_floor_hits = np.zeros(self.batch_shape, dtype=np.int64)
        advance = self.advance
        if self._floats:  # the lane steps a tuple of Python floats
            y, rate = tuple(y.tolist()), self._rates
        else:
            rate = lambda v_lead, y: self.rhs(v_lead, *work.at[y is work.y[1]])[0]  # noqa: E731

        # the loop records x, v and a, as (part, slice) of y and its
        # derivative f; s, dv and u are rebuilt from x and v, kept for them
        sources = {"x": (0, self._x), "v": (1, self._x), "a": (1, self._v)}
        derived = [name for name in ("s", "dv", "u") if name in record]
        stored = [name for name in sources if name in record or derived and name != "a"]
        widths = {name: self.n + (name in ("x", "v")) for name in stored + derived}
        # the samples kept, lo to hi, and the buffer's length in samples: a
        # folded run covers the metric window in bounded blocks, any other
        # its steps at once
        lo, hi = start, end + 1
        block = hi - lo
        if fold is not None:
            keep = window_slice(t_grid, sc.metric_window)
            if keep.stop > hi:
                raise DomainError(f"metric window {sc.metric_window} ends after run end {end}")
            lo, hi = max(keep.start, start), max(keep.stop, start)
            block = max(1, _FOLD_VALUES // (math.prod(self.batch_shape) * sum(widths.values())))
        last = hi - 1  # the last sample the run reaches
        # the record's buffers, and views of them in the engine's layout,
        # (sample, vehicle, *batch), through which the loop and the rebuild
        # write: the transposition rides on those copies
        bufs = {name: np.empty((block, *self.batch_shape, w), self.dtype) for name, w in widths.items()}
        views = {name: np.moveaxis(buf, -1, 1) for name, buf in bufs.items()}
        fields = [(views[name], *sources[name]) for name in stored]
        out = {name: bufs[name] for name in record}  # an unknown name fails here

        def emit(stop, rows):
            # the buffer's first rows hold the samples up to `stop`; s, dv and
            # u are rebuilt by `rhs`'s expressions, in blocks of rows
            for k0 in range(0, rows if derived else 0, _STAGE_BLOCK):
                x, v = (views[name][k0 : min(k0 + _STAGE_BLOCK, rows)] for name in ("x", "v"))
                s = x[:, :-1] - x[:, 1:] - self.front_lengths
                dv = v[:, :-1] - v[:, 1:]
                u = np.zeros_like(s)  # +0.0 on every HV
                if self._a is not None:
                    a = (slice(None), *self._a)  # the row axis leads the vehicles
                    u[a] = self.control_input(s[a], dv[a], v[:, :-1][a])
                parts = {"s": s, "dv": dv, "u": u}
                for name in derived:
                    views[name][k0 : k0 + len(x)] = parts[name]
            if fold is not None:
                fold(t_grid[stop - rows : stop], {name: buf[:rows] for name, buf in out.items()})

        def record_sample(k, parts):
            j = (k - lo) % block
            for buf, part, idx in fields:
                buf[j] = parts[part][idx]
            if fold is not None and j == block - 1:
                emit(k + 1, block)

        for k, v_lead in zip(range(start, last), lead_later):
            f = rate(lead_t[k], y)
            if k >= lo:
                record_sample(k, (y, f))
            y = advance(y, f, v_lead, work)
            self._check_finite(y, t_grid[k + 1])
        if lo <= last:
            record_sample(last, (y, rate(lead_t[last], y)))
        del lead, lead_later  # free the leader's table before the rebuild

        if self.floor_hits and not self.batch_shape:
            logger.warning("speed floor at 0 m/s engaged %d times during the run", self.floor_hits)
        if fold is not None:
            emit(hi, (hi - lo) % block)
            return None
        emit(hi, hi - lo)
        return {"t": t_grid[lo:hi], **out}


def assemble_trajectory(scenario: Scenario, raw: dict) -> Trajectory:
    """Build a Trajectory from raw engine output of a single (unbatched) run."""
    t = raw["t"]
    a = np.column_stack([scenario.lead.slope(t), raw["a"]])
    return Trajectory(t, raw["x"], raw["v"], a, raw["s"], raw["dv"], raw["u"], scenario.kinds)


def simulate(scenario: Scenario) -> Trajectory:
    """Run the scenario from equilibrium initialization to its horizon."""
    return assemble_trajectory(scenario, PlatoonEngine(scenario).run())


def check_safety(traj: Trajectory, min_safe: float) -> list[SafetyViolation]:
    """Every (vehicle, time) sample whose spacing is below the safe minimum."""
    rows, cols = np.nonzero(traj.s < min_safe)
    return [
        SafetyViolation(vehicle=i + 1, time=float(traj.t[k]), spacing=float(traj.s[k, i]))
        for k, i in zip(rows.tolist(), cols.tolist())
    ]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one row per (time, vehicle) with fixed 6-decimal formatting.

    Rows end in csv's "\\r\\n". A time sample's rows are one %-format over
    the leader's (t, x, v, a), its s, dv and u fixed as `nan,nan,0.000000`,
    and each follower's (t, x, v, a, s, dv, u), every index and kind fixed.
    """
    block = 32  # time samples formatted per write; keeps the row lists small
    fmt = "%.6f,0,lead" + ",%.6f" * 3 + ",nan,nan,0.000000\r\n" + "".join(
        f"%.6f,{i},{kind}" + ",%.6f" * 6 + "\r\n" for i, kind in enumerate(traj.kinds[1:], 1))
    t_col = np.broadcast_to(traj.t[:, None], traj.s.shape)
    cols = (t_col, traj.x[:, 1:], traj.v[:, 1:], traj.a[:, 1:], traj.s, traj.dv, traj.u)
    with open(path, "w", newline="") as fh:
        fh.write("t,vehicle,kind,x,v,a,s,dv,u\r\n")
        for k0 in range(0, len(traj.t), block):
            k = slice(k0, k0 + block)
            lead = np.stack([traj.t[k], traj.x[k, 0], traj.v[k, 0], traj.a[k, 0]], axis=-1)
            rest = np.stack([c[k] for c in cols], axis=-1).reshape(len(lead), -1)
            fh.write("".join(fmt % tuple(r) for r in np.hstack([lead, rest]).tolist()))
